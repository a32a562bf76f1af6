//! The MaSM engine: the storage-manager-level facade of §3.
//!
//! One engine manages one table: its clustered heap on the disk device,
//! its SSD update cache (in-memory buffer + materialized sorted runs),
//! its redo log, and the timestamp oracle that serializes individual
//! queries and updates. It exposes exactly the surface the paper argues
//! a DBMS needs ("MaSM can be implemented in the storage manager … it
//! does not require modification to the buffer manager, query processor
//! or query optimizer"):
//!
//! * [`MasmEngine::apply_update`] — ingest a well-formed update,
//! * [`MasmEngine::begin_scan`] — a table range scan that transparently
//!   merges cached updates (drop-in for `Table_range_scan`),
//! * [`MasmEngine::migrate`] — in-place migration of cached updates,
//! * [`MasmEngine::recover`] — crash recovery from the redo log.
//!
//! # Concurrency architecture
//!
//! The engine state lock is a [`TrackedMutex`] and is **never** held
//! across device I/O (the storage layer debug-asserts this). Every
//! operation follows the same phased-locking shape:
//!
//! 1. a short critical section deciding what to do and snapshotting
//!    immutable `Arc`s (runs, sealed batches, a buffer snapshot),
//! 2. all I/O outside the lock against those snapshots,
//! 3. a short *handoff* critical section publishing the result and
//!    bumping the engine epoch.
//!
//! Queries therefore read a consistent snapshot and never block on a
//! flush, merge, or migration. Retired run space is recycled only once
//! the engine quiesces (no active queries, no sealed batches, no merge
//! or migration in flight), so a pinned snapshot can keep reading a
//! retired run's blocks safely — the bump allocator never hands its
//! extent out again before the rewind.
//!
//! With `background_workers > 0` a `worker::WorkerPool`
//! executes flushes, compactions, and migrations off the ingest/scan
//! path: ingest *seals* a full buffer into an immutable batch (visible
//! to queries) and enqueues a flush job; it only ever throttles via the
//! bounded-backlog backpressure gate. With `background_workers == 0`
//! (the default) everything runs inline and single-threaded benches
//! stay deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

use masm_blockrun::BlockCache;
use masm_pagestore::{ChunkCommit, Key, Page, RangeScan, Record, Schema, TableHeap};
use masm_storage::{
    CacheStatsSnapshot, CompressionReport, IoSession, MergeReport, Ns, SessionHandle, SimDevice,
    StorageError, TrackedMutex,
};
use masm_telemetry::{
    current_tid, BufferStats, Counter, EngineStats, Gauge, Histogram, OpLatencies, Registry,
    RunSetStats, Timer, Tracer, TrackId, Unit, WorkerStats,
};

use crate::algo::RunSet;
use crate::config::MasmConfig;
use crate::error::{MasmError, MasmResult};
use crate::manifest::ShardManifest;
use crate::membuf::UpdateBuffer;
use crate::merge::{
    compact_block_runs, fold_duplicates, MergeDataUpdates, MergeUpdates, UpdateStream,
};
use crate::run::{
    build_run, lookup_in_run, recover_run, write_built, RunScan, SortedRun, SsdSpace,
};
use crate::ts::{Timestamp, TimestampOracle};
use crate::update::{UpdateOp, UpdateRecord};
use crate::wal::{Wal, WalRecord};
use crate::worker::{Job, JobKind, WorkerHandle, WorkerPool, MAX_JOB_ATTEMPTS};

/// The engine's metric families: a [`Registry`] for export plus direct
/// `Arc<Histogram>` handles for the hot paths (registry lookup never
/// happens per operation). All six histograms record **virtual-ns**.
struct EngineMetrics {
    registry: Registry,
    ingest: Arc<Histogram>,
    get: Arc<Histogram>,
    scan_next: Arc<Histogram>,
    flush: Arc<Histogram>,
    migrate: Arc<Histogram>,
    block_fetch: Arc<Histogram>,
    /// Epochs the oldest pinned query snapshot trails the engine's
    /// current epoch (0 when no query is active).
    epoch_lag: Arc<Gauge>,
    recovery: RecoveryCounters,
}

/// Crash-recovery counters (family `recovery`). Registered on every
/// engine so `render_openmetrics` always exports the family; non-zero
/// only on engines built by [`MasmEngine::recover`].
struct RecoveryCounters {
    records_replayed: Arc<Counter>,
    updates_rebuilt: Arc<Counter>,
    runs_recovered: Arc<Counter>,
    torn_tail: Arc<Counter>,
    torn_bytes: Arc<Counter>,
    migrations_redriven: Arc<Counter>,
}

impl EngineMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        let h = |name, help| registry.histogram("op", name, Unit::VirtualNs, help);
        EngineMetrics {
            ingest: h(
                "ingest",
                "one apply_update call, including any flush it triggered",
            ),
            get: h("get", "one point lookup"),
            scan_next: h(
                "scan_next",
                "merged range scan: count = records returned, samples = per-batch stall",
            ),
            flush: h("flush", "one buffer flush materializing a 1-pass run"),
            migrate: h("migrate", "one full or partial migration"),
            block_fetch: h("block_fetch", "one block obtained by a query run scan"),
            epoch_lag: registry.gauge(
                "engine",
                "epoch_lag",
                Unit::Ops,
                "epochs the oldest pinned query snapshot trails the engine",
            ),
            recovery: {
                let r = |name, unit, help| registry.counter("recovery", name, unit, help);
                RecoveryCounters {
                    records_replayed: r(
                        "records_replayed",
                        Unit::Ops,
                        "WAL records replayed at recovery",
                    ),
                    updates_rebuilt: r(
                        "updates_rebuilt",
                        Unit::Ops,
                        "updates restored into the in-memory buffer",
                    ),
                    runs_recovered: r(
                        "runs_recovered",
                        Unit::Ops,
                        "materialized runs re-registered at recovery",
                    ),
                    torn_tail: r("torn_tail", Unit::Ops, "torn WAL tails truncated"),
                    torn_bytes: r(
                        "torn_bytes",
                        Unit::Bytes,
                        "WAL bytes discarded with torn tails",
                    ),
                    migrations_redriven: r(
                        "migrations_redriven",
                        Unit::Ops,
                        "interrupted migrations re-driven to completion",
                    ),
                }
            },
            registry,
        }
    }

    fn snapshot(&self) -> OpLatencies {
        OpLatencies {
            ingest: self.ingest.snapshot(),
            get: self.get.snapshot(),
            scan_next: self.scan_next.snapshot(),
            flush: self.flush.snapshot(),
            migrate: self.migrate.snapshot(),
            block_fetch: self.block_fetch.snapshot(),
        }
    }
}

/// Bookkeeping for one active query (scan or point lookup).
#[derive(Debug, Clone, Copy)]
struct QueryPin {
    /// Query pages pinned (one per open run scan).
    pages: u64,
    /// The engine epoch the query's snapshot was taken at.
    epoch: u64,
}

/// A full in-memory buffer, sealed into an immutable batch awaiting its
/// background flush. Sealed batches stay visible to queries (scans and
/// gets read them alongside runs and the live buffer) and are removed
/// only when their 1-pass run is published.
struct SealedBatch {
    id: u64,
    /// Largest update timestamp in the batch — logged with the run so
    /// recovery can tell buffer-resident updates from flushed ones.
    max_ts: Timestamp,
    /// Logical bytes, for backlog accounting.
    bytes: u64,
    /// A worker (or inline caller) is currently flushing this batch.
    claimed: bool,
    /// Whether `bytes` was charged to the worker backlog gate.
    enqueued: bool,
    /// Sorted, deduplicated updates; shared with query snapshots.
    updates: Arc<Vec<UpdateRecord>>,
}

struct EngineState {
    buffer: UpdateBuffer,
    runs: RunSet,
    /// Sealed batches awaiting background flush, oldest first.
    sealed: Vec<SealedBatch>,
    next_batch: u64,
    /// Active query timestamps → pin bookkeeping.
    active_queries: BTreeMap<Timestamp, QueryPin>,
    /// Total pinned query pages across active scans.
    pinned_pages: u64,
    /// SSD bytes of runs deleted while queries were still active; freed
    /// once the system quiesces.
    retired_bytes: u64,
    /// A planned 2-pass merge is in flight.
    merging: bool,
    migrating: bool,
    /// Scans whose query timestamp is drawn (or about to be drawn) but
    /// not yet registered in `active_queries`. A cross-shard scan draws
    /// one timestamp and then pins each shard in turn; between the draw
    /// and this shard's pin, the timestamp is invisible to the
    /// active-query guards, so duplicate folding and the migration gate
    /// must treat any pending reservation as "a query at an unknown
    /// timestamp may still arrive" and stay conservative.
    scan_reservations: u64,
}

/// Outcome of one migration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Migration timestamp `t`.
    pub ts: Timestamp,
    /// Number of runs migrated.
    pub runs_migrated: usize,
    /// Update records merged into the main data.
    pub updates_applied: u64,
    /// Data pages written back.
    pub pages_written: u64,
}

/// Outcome of crash recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Updates restored into the in-memory buffer.
    pub updates_recovered: u64,
    /// Materialized runs re-registered.
    pub runs_recovered: usize,
    /// Whether an interrupted migration was re-driven to completion.
    pub redid_migration: bool,
    /// WAL records replayed from the longest valid log prefix.
    pub wal_records_replayed: u64,
    /// Bytes truncated from a torn WAL tail (0 = the log ended
    /// cleanly).
    pub wal_torn_bytes: u64,
}

/// One heap-metadata event parsed from a redo log. Sharded recovery
/// merges the events of every shard's log into one globally ordered
/// sequence (by `seq`, with cross-log duplicates removed) before
/// touching the shared heap.
#[derive(Debug, Clone)]
pub(crate) enum HeapEvent {
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
    pub(crate) fn seq(&self) -> u64 {
        match self {
            HeapEvent::Load { seq, .. } | HeapEvent::Splice { seq, .. } => *seq,
        }
    }
}

/// Replay the heap-metadata events of one or more redo logs against a
/// (fresh) table heap, in global `seq` order. Duplicates — the same
/// bulk load broadcast to several shard WALs — collapse by `seq`.
pub(crate) fn apply_heap_events(heap: &TableHeap, mut events: Vec<HeapEvent>) {
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
pub(crate) struct RecoveredRun {
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
    pub(crate) live_runs: BTreeMap<u64, RecoveredRun>,
    /// Logged updates not yet absorbed by any 1-pass run — the
    /// in-memory buffer contents at the crash.
    pub(crate) pending: Vec<UpdateRecord>,
    /// Highest durable timestamp (updates, migration marks, and
    /// heap-event seqs all draw from the one oracle).
    pub(crate) max_ts: Timestamp,
    /// A `MigrationBegin` without its `MigrationEnd`.
    pub(crate) unfinished_migration: bool,
    /// Heap loads and splices, in log order.
    pub(crate) heap_events: Vec<HeapEvent>,
    /// Records in the valid prefix.
    pub(crate) records_replayed: u64,
    /// Byte offset where the valid prefix ends (the recovered append
    /// point).
    pub(crate) end_offset: u64,
    /// Bytes dropped beyond `end_offset` (torn tail; 0 = clean end).
    pub(crate) torn_bytes: u64,
}

/// The MaSM storage-manager engine for one table.
pub struct MasmEngine {
    heap: Arc<TableHeap>,
    ssd: SimDevice,
    cfg: MasmConfig,
    schema: Schema,
    /// Shared cache of decoded run blocks: every run scan of this
    /// engine — queries, merges, migrations — goes through it, so hot
    /// run pages are read off the SSD once.
    cache: Arc<BlockCache>,
    oracle: TimestampOracle,
    /// The engine state lock. [`TrackedMutex`]: holding it across
    /// device I/O is a debug-mode panic (lock-discipline audit).
    state: TrackedMutex<EngineState>,
    quiesce: Condvar,
    /// Redo log. Appends are internally synchronized (lock-free offset
    /// reservation) — no engine lock is involved in logging.
    wal: Wal,
    /// Monotonic snapshot-publication counter: bumped inside every
    /// handoff critical section that changes the visible run set.
    epoch: AtomicU64,
    /// Background worker pool, present when `background_workers > 0`.
    workers: OnceLock<WorkerHandle>,
    /// This engine's shard index in a sharded deployment (0 when the
    /// engine stands alone). Tags every job handed to the shared pool.
    shard_id: usize,
    ingested_updates: AtomicU64,
    ingested_bytes: AtomicU64,
    /// Last commit timestamp per key, for first-committer-wins snapshot
    /// isolation (§3.6). A production system would truncate this by the
    /// oldest active transaction; we keep it simple.
    commit_index: Mutex<std::collections::HashMap<Key, Timestamp>>,
    /// Outcome of the most recent planned run merge (2-pass merge or
    /// compaction).
    last_merge: Mutex<Option<MergeReport>>,
    /// Cumulative totals across every planned merge this engine ran.
    merge_totals: Mutex<MergeReport>,
    /// Cumulative codec accounting across every run this engine built
    /// (or recovered): raw vs stored data-block bytes, blocks per codec.
    compression_totals: Mutex<CompressionReport>,
    /// Per-operation latency histograms + the metric registry behind
    /// [`MasmEngine::stats`].
    metrics: EngineMetrics,
    /// Optional `masm-trace` flight recorder
    /// ([`MasmEngine::install_tracer`]). When absent or disabled every
    /// instrumentation site costs one load.
    tracer: OnceLock<Arc<Tracer>>,
    /// Flow id linking the most recently requested compact job to the
    /// flush/scan that scheduled it (0 = none pending). Consumed by
    /// [`MasmEngine::run_job`].
    compact_flow: AtomicU64,
    /// Flow id linking the most recently requested migrate job to its
    /// requester (0 = none pending).
    migrate_flow: AtomicU64,
}

impl std::fmt::Debug for MasmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("MasmEngine")
            .field("buffered_updates", &st.buffer.len())
            .field("runs", &st.runs.len())
            .field("cached_bytes", &st.runs.live_bytes())
            .finish()
    }
}

impl MasmEngine {
    /// Create an engine over an existing (possibly empty) heap.
    pub fn new(
        heap: Arc<TableHeap>,
        ssd: SimDevice,
        wal_dev: SimDevice,
        schema: Schema,
        cfg: MasmConfig,
    ) -> MasmResult<Arc<Self>> {
        Self::build(
            heap,
            ssd,
            wal_dev,
            schema,
            cfg,
            TimestampOracle::new(),
            0,
            true,
        )
    }

    /// Shared constructor. A sharded deployment injects a *cloned*
    /// oracle (one global timestamp order across shards), the shard's
    /// index, and `spawn_workers = false` — the [`crate::ShardedEngine`]
    /// wires one shared pool across all shards afterwards via
    /// [`MasmEngine::install_workers`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        heap: Arc<TableHeap>,
        ssd: SimDevice,
        wal_dev: SimDevice,
        schema: Schema,
        cfg: MasmConfig,
        oracle: TimestampOracle,
        shard_id: usize,
        spawn_workers: bool,
    ) -> MasmResult<Arc<Self>> {
        // A fresh engine is the recovery of an empty redo log: one
        // construction path, one engine literal.
        Self::recover_from_parsed(
            heap,
            ssd,
            wal_dev,
            schema,
            cfg,
            oracle,
            shard_id,
            spawn_workers,
            ParsedWal::default(),
            None,
        )
        .map(|(engine, _)| engine)
    }

    /// Spawn the background worker pool when one is configured.
    fn start_workers(engine: &Arc<Self>) {
        if engine.cfg.background_workers > 0 {
            let pool = WorkerPool::new(
                engine.cfg.background_workers,
                engine.cfg.effective_backlog_bytes(),
                1,
                &[&engine.metrics.registry],
            );
            let handle = WorkerHandle::spawn(std::slice::from_ref(engine), pool);
            let _ = engine.workers.set(handle);
        }
    }

    /// Install a shared worker handle built by a sharded deployment.
    /// No-op if workers were already installed.
    pub(crate) fn install_workers(&self, handle: WorkerHandle) {
        let _ = self.workers.set(handle);
    }

    /// This engine's metric registry (per-shard counters for a shared
    /// pool register here).
    pub(crate) fn registry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Install the `masm-trace` flight recorder. First installation
    /// wins; the engine emits spans, instants, and flow links only
    /// while a tracer is installed *and* enabled — otherwise every
    /// instrumentation site costs one relaxed load.
    pub fn install_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// The installed tracer while recording is on. `None` is the fast
    /// path: one `OnceLock` load plus one relaxed atomic load.
    #[inline]
    fn trace(&self) -> Option<&Arc<Tracer>> {
        self.tracer.get().filter(|t| t.enabled())
    }

    /// The installed tracer regardless of the enabled flag (scan
    /// streams hold it for the lifetime of the query and re-check the
    /// flag per event).
    pub(crate) fn tracer_arc(&self) -> Option<Arc<Tracer>> {
        self.tracer.get().cloned()
    }

    /// This engine's trace track: pid = shard, tid = calling thread.
    fn track(&self) -> TrackId {
        TrackId {
            pid: self.shard_id as u32,
            tid: current_tid(),
        }
    }

    /// Deterministic flow id for sealed batch `batch_id`'s ingest →
    /// flush causal link. Shard-disambiguated and disjoint from
    /// [`Tracer::next_flow_id`]'s counter range, so the link can be
    /// emitted statelessly from both ends.
    fn flush_flow(&self, batch_id: u64) -> u64 {
        ((self.shard_id as u64 + 1) << 40) | batch_id
    }

    /// Drain and join the background workers (no-op in inline mode).
    /// Idempotent; queued jobs still execute before threads exit.
    /// Dropping the engine without calling this only *signals* shutdown
    /// — call it for deterministic teardown.
    pub fn shutdown(&self) {
        if let Some(h) = self.workers.get() {
            h.join();
        }
    }

    /// The worker handle while background mode is live. `None` once
    /// shutdown has been signalled: a job enqueued past shutdown would
    /// never run, so the engine reverts to the inline flush/merge paths
    /// (same semantics as `background_workers = 0`).
    fn live_pool(&self) -> Option<&WorkerHandle> {
        self.workers.get().filter(|h| !h.pool().is_shutdown())
    }

    /// Worker-side job dispatch (called from the pool's threads). The
    /// session starts at the job's *request* time, so background I/O
    /// overlaps the foreground actors in virtual time; the device
    /// busy-horizon serializes it against same-shard traffic.
    pub(crate) fn run_job(self: &Arc<Self>, pool: &WorkerPool, mut job: Job) {
        let session = SessionHandle::new(IoSession::at(self.ssd.clock().clone(), job.at));
        // Resolve the job's causal link before executing: the flush
        // flow id is deterministic from the batch, compact/migrate
        // flows were stashed by whoever scheduled the job. Consume the
        // stash unconditionally so a stale id never leaks into the
        // next job of the same kind.
        let (job_name, flow_name, flow) = match job.kind {
            JobKind::Flush { batch_id } => ("job.flush", "masm.flush", self.flush_flow(batch_id)),
            JobKind::Compact => (
                "job.compact",
                "masm.compact",
                self.compact_flow.swap(0, Ordering::Relaxed),
            ),
            JobKind::Migrate => (
                "job.migrate",
                "masm.migrate",
                self.migrate_flow.swap(0, Ordering::Relaxed),
            ),
        };
        let result = match job.kind {
            JobKind::Flush { batch_id } => self.flush_batch(&session, batch_id),
            JobKind::Compact => self.background_compact(&session),
            JobKind::Migrate => self.migrate(&session).map(|_| ()),
        };
        // The migrate staggering slot is held for the *execution* only —
        // release it before retry bookkeeping so a failed migration
        // cannot deadlock the pool against its own requeued job.
        if matches!(job.kind, JobKind::Migrate) {
            pool.migration_finished();
        }
        let counters = pool.counters(self.shard_id);
        let job_at = job.at;
        let mut attempts = job.attempts;
        match result {
            Ok(()) => {
                counters.jobs_completed.incr();
                self.maybe_schedule_maintenance(session.now());
            }
            Err(_) => {
                job.attempts += 1;
                attempts = job.attempts;
                if job.attempts < MAX_JOB_ATTEMPTS {
                    counters.jobs_retried.incr();
                    if let Some(t) = self.trace() {
                        t.instant(
                            "job.retry",
                            self.track(),
                            session.now(),
                            "attempts",
                            u64::from(job.attempts),
                        );
                    }
                    pool.requeue(job);
                } else {
                    counters.jobs_failed.incr();
                    if let Some(t) = self.trace() {
                        t.instant(
                            "job.abandon",
                            self.track(),
                            session.now(),
                            "attempts",
                            u64::from(job.attempts),
                        );
                    }
                    if let JobKind::Flush { batch_id } = job.kind {
                        self.abandon_batch(batch_id);
                    }
                }
            }
        }
        // Emit the job span last so every event this job produced —
        // the flow finish, retries, and any compact/migrate flow starts
        // scheduled by `maybe_schedule_maintenance` — falls inside it.
        if let Some(t) = self.trace() {
            let track = self.track();
            if flow != 0 {
                t.flow_finish(flow_name, track, job_at, flow);
            }
            t.span_event(
                job_name,
                track,
                job_at,
                session.now().saturating_sub(job_at),
                "attempts",
                u64::from(attempts),
            );
        }
    }

    /// Enqueue compaction / migration jobs if the run set warrants them
    /// (checked after every completed job and every published flush).
    /// `at` is the requesting actor's virtual time.
    fn maybe_schedule_maintenance(&self, at: Ns) {
        let Some(h) = self.workers.get() else { return };
        let (compact, migrate) = {
            let st = self.state.lock();
            (
                !st.merging && st.runs.plan_merge(&self.cfg).is_some(),
                !st.migrating && st.runs.needs_migration(&self.cfg),
            )
        };
        if compact {
            if let Some(t) = self.trace() {
                let flow = t.next_flow_id();
                self.compact_flow.store(flow, Ordering::Relaxed);
                t.flow_start("masm.compact", self.track(), at, flow);
            }
            h.pool().enqueue_compact(self.shard_id, at);
        }
        if migrate {
            if let Some(t) = self.trace() {
                let flow = t.next_flow_id();
                self.migrate_flow.store(flow, Ordering::Relaxed);
                t.flow_start("masm.migrate", self.track(), at, flow);
            }
            h.pool().enqueue_migrate(self.shard_id, at);
        }
    }

    /// A flush exhausted its retries: move the sealed batch's updates
    /// back into the in-memory buffer (the WAL already holds them all)
    /// so nothing is lost and queries keep seeing the data.
    fn abandon_batch(&self, batch_id: u64) {
        let released = {
            let mut st = self.state.lock();
            let Some(pos) = st.sealed.iter().position(|b| b.id == batch_id) else {
                return;
            };
            let batch = st.sealed.remove(pos);
            for u in batch.updates.iter() {
                st.buffer.push(u.clone());
            }
            batch.enqueued.then_some(batch.bytes)
        };
        if let (Some(bytes), Some(h)) = (released, self.workers.get()) {
            h.pool().release_backlog(bytes);
        }
        self.quiesce.notify_all();
    }

    /// Bulk-load the table (records sorted by key) and log the load so
    /// the heap metadata is recoverable.
    pub fn load_table(
        &self,
        session: &SessionHandle,
        records: impl IntoIterator<Item = Record>,
        fill: f64,
    ) -> MasmResult<()> {
        self.heap.bulk_load(session, records, fill)?;
        self.log_heap_loaded(session, self.oracle.next())
    }

    /// Log the heap's current (bulk-loaded) metadata under heap-event
    /// sequence `seq`. A sharded deployment broadcasts one load to
    /// every shard's WAL under a single shared `seq`, so multi-log
    /// replay applies it exactly once.
    pub(crate) fn log_heap_loaded(&self, session: &SessionHandle, seq: u64) -> MasmResult<()> {
        let (page_map, min_keys, record_count) = self.heap.metadata_snapshot();
        let base = page_map.first().copied().unwrap_or(0);
        self.wal.append(
            session,
            &WalRecord::HeapLoaded {
                seq,
                base,
                page_size: self.heap.config().page_size as u32,
                min_keys,
                record_count,
            },
        )
    }

    /// Append the shard manifest to this shard's redo log (the first
    /// record of every WAL in a sharded deployment).
    pub(crate) fn log_manifest(
        &self,
        session: &SessionHandle,
        manifest: &ShardManifest,
    ) -> MasmResult<()> {
        self.wal
            .append(session, &WalRecord::Manifest(manifest.clone()))
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The engine configuration.
    pub fn config(&self) -> &MasmConfig {
        &self.cfg
    }

    /// The table heap.
    pub fn heap(&self) -> &Arc<TableHeap> {
        &self.heap
    }

    /// The SSD update-cache device (for statistics).
    pub fn ssd(&self) -> &SimDevice {
        &self.ssd
    }

    /// The shared block cache of decoded run blocks.
    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Hit/miss counters of the block cache, including the split
    /// between evictable data-block bytes and pinned run-metadata bytes
    /// (zone maps + bloom filters).
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    /// Outcome of the most recent planned run merge (2-pass merge or
    /// compaction), if any has run.
    pub fn last_merge_report(&self) -> Option<MergeReport> {
        *self.last_merge.lock()
    }

    /// Cumulative merge totals across the engine's lifetime.
    pub fn merge_stats(&self) -> MergeReport {
        *self.merge_totals.lock()
    }

    /// Cumulative codec accounting over every run this engine built or
    /// recovered: raw vs stored data-block bytes and per-codec block
    /// counts ([`CompressionReport::ratio`] is the on-disk compression
    /// ratio the configured [`crate::config::CodecChoice`] achieved).
    pub fn compression_stats(&self) -> CompressionReport {
        *self.compression_totals.lock()
    }

    fn record_merge(&self, report: MergeReport) {
        *self.last_merge.lock() = Some(report);
        let mut totals = self.merge_totals.lock();
        *totals = totals.merge(&report);
    }

    /// Fold a newly built (or recovered) run's codec accounting into
    /// the engine totals.
    fn record_compression(&self, run: &SortedRun) {
        let mut totals = self.compression_totals.lock();
        *totals = totals.merge(&run.meta.compression());
    }

    /// Pin a run's metadata footprint (zone maps + bloom) in the cache
    /// accounting.
    fn account_run_added(&self, run: &SortedRun) {
        self.cache.retain_meta_bytes(run.memory_bytes());
    }

    /// Release the metadata footprint of runs about to be removed; must
    /// run **before** `remove_ids` while the runs are still registered.
    fn account_runs_removed(&self, st: &EngineState, ids: &[u64]) {
        let bytes: usize = st
            .runs
            .runs()
            .iter()
            .filter(|r| ids.contains(&r.id))
            .map(|r| r.memory_bytes())
            .sum();
        self.cache.release_meta_bytes(bytes);
    }

    /// The timestamp oracle.
    pub fn oracle(&self) -> &TimestampOracle {
        &self.oracle
    }

    /// Bytes of cached updates on the SSD (live runs).
    pub fn cached_bytes(&self) -> u64 {
        self.state.lock().runs.live_bytes()
    }

    /// Number of live materialized runs.
    pub fn run_count(&self) -> usize {
        self.state.lock().runs.len()
    }

    /// Number of updates waiting in the in-memory buffer.
    pub fn buffered_updates(&self) -> usize {
        self.state.lock().buffer.len()
    }

    /// Whether cached updates have reached the migration threshold.
    pub fn needs_migration(&self) -> bool {
        let st = self.state.lock();
        st.runs.needs_migration(&self.cfg)
    }

    /// Total updates ingested and their logical bytes (for
    /// write-amplification accounting).
    pub fn ingest_stats(&self) -> (u64, u64) {
        (
            self.ingested_updates.load(Ordering::Relaxed),
            self.ingested_bytes.load(Ordering::Relaxed),
        )
    }

    /// The unified engine snapshot: cache, merge, compression, device
    /// I/O + wear summary, buffer and run-set occupancy, and the six
    /// per-operation latency histograms — everything the paper's
    /// quantitative invariants need, in one [`EngineStats`] value
    /// (serializable via [`EngineStats::to_json`], differentiable via
    /// [`EngineStats::delta`]).
    ///
    /// Cheap enough to poll from a driver loop: two short mutex holds
    /// (engine state, WAL) plus atomic loads; the SSD wear summary is
    /// O(1) — no per-block map is walked.
    pub fn stats(&self) -> EngineStats {
        let (buffer, runs, epoch_lag) = {
            let st = self.state.lock();
            let epoch = self.epoch.load(Ordering::Acquire);
            let lag = st
                .active_queries
                .values()
                .map(|p| p.epoch)
                .min()
                .map_or(0, |oldest| epoch.saturating_sub(oldest));
            (
                BufferStats {
                    updates: st.buffer.len() as u64,
                    bytes: st.buffer.bytes() as u64,
                    capacity_bytes: st.buffer.capacity() as u64,
                },
                RunSetStats {
                    count: st.runs.len() as u64,
                    cached_bytes: st.runs.live_bytes(),
                    ssd_capacity_bytes: self.cfg.ssd_capacity,
                },
                lag,
            )
        };
        self.metrics.epoch_lag.set(epoch_lag);
        let mut workers = WorkerStats::default();
        if let Some(h) = self.workers.get() {
            // The job counters live in this shard's registry (family
            // `worker`); the pool-wide levels are read off the pool,
            // which registers its gauges with the first shard only.
            self.metrics.registry.read_family("worker", &mut workers);
            let (queue_depth, backlog_bytes) = h.pool().depths();
            workers.threads = h.pool().threads as u64;
            workers.queue_depth = queue_depth;
            workers.backlog_bytes = backlog_bytes;
        }
        workers.epoch_lag = epoch_lag;
        let wal = self.wal.device().stats();
        EngineStats {
            at_ns: self.ssd.clock().now(),
            ingested_updates: self.ingested_updates.load(Ordering::Relaxed),
            ingested_bytes: self.ingested_bytes.load(Ordering::Relaxed),
            buffer,
            runs,
            cache: self.cache.stats(),
            merge: *self.merge_totals.lock(),
            compression: *self.compression_totals.lock(),
            ssd: self.ssd.stats(),
            ssd_wear: self.ssd.wear_stats(),
            wal,
            workers,
            ops: self.metrics.snapshot(),
        }
    }

    /// The engine's metric registry (six `op.*` latency families), for
    /// catalog-style export: walk it with [`Registry::for_each`].
    pub fn metrics_registry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Atomically commit a transaction's private writes under
    /// first-committer-wins snapshot isolation (§3.6): if any written key
    /// was committed by another transaction after `start_ts`, the commit
    /// aborts with [`MasmError::Conflict`]. On success all writes carry
    /// one fresh commit timestamp.
    pub fn commit_writes(
        self: &Arc<Self>,
        session: &SessionHandle,
        start_ts: Timestamp,
        writes: Vec<(Key, UpdateOp)>,
    ) -> MasmResult<Timestamp> {
        let mut idx = self.commit_index.lock();
        for (key, _) in &writes {
            if idx.get(key).is_some_and(|&t| t > start_ts) {
                return Err(MasmError::Conflict { key: *key });
            }
        }
        let ts = self.oracle.next();
        for (key, _) in &writes {
            idx.insert(*key, ts);
        }
        drop(idx);
        for (key, op) in writes {
            self.apply_update_with_ts(session, UpdateRecord::new(ts, key, op))?;
        }
        Ok(ts)
    }

    /// Apply one well-formed update; returns its commit timestamp.
    pub fn apply_update(
        self: &Arc<Self>,
        session: &SessionHandle,
        key: Key,
        op: UpdateOp,
    ) -> MasmResult<Timestamp> {
        self.ingest(session, Err((key, op)))
    }

    /// Apply an update that already carries its commit timestamp
    /// (transaction commit path).
    pub fn apply_update_with_ts(
        self: &Arc<Self>,
        session: &SessionHandle,
        update: UpdateRecord,
    ) -> MasmResult<()> {
        self.ingest(session, Ok(update)).map(|_| ())
    }

    /// The shared ingest path. `pre` is either a pre-timestamped update
    /// (transaction commit, which assigned its timestamp under the
    /// commit index — a small pre-existing window where a concurrent
    /// seal may race the push) or the raw (key, op), whose timestamp is
    /// drawn *inside* the state lock so it can never land in a batch
    /// already sealed with a smaller `max_ts`.
    fn ingest(
        self: &Arc<Self>,
        session: &SessionHandle,
        pre: Result<UpdateRecord, (Key, UpdateOp)>,
    ) -> MasmResult<Timestamp> {
        let _t = Timer::start(&self.metrics.ingest, || session.now());
        // Sampled hot-path span (1-in-2^shift); `None` costs one
        // relaxed load + one relaxed fetch-add.
        let _sp = self
            .trace()
            .and_then(|t| t.op_span("ingest", self.track(), || session.now()));
        let background = self.live_pool().is_some();
        let (update, seal) = {
            let mut st = self.state.lock();
            let mut seal = None;
            if st.buffer.is_full() {
                // MaSM-M (Fig. 8): steal an unused query page if one
                // exists, otherwise seal the buffer for flushing.
                let page = self.cfg.ssd_page_size;
                let stolen = (st.buffer.capacity() - st.buffer.base_capacity()) / page;
                let in_use = st.pinned_pages + stolen as u64;
                if self.cfg.alpha < 2.0 && in_use < self.cfg.query_pages() {
                    st.buffer.steal_page(page);
                } else if st.runs.live_bytes() + st.buffer.bytes() as u64 > self.cfg.ssd_capacity {
                    return Err(MasmError::CacheFull {
                        cached: st.runs.live_bytes(),
                        capacity: self.cfg.ssd_capacity,
                    });
                } else {
                    seal = Some(self.seal_batch_locked(&mut st, background));
                }
            }
            let update = match pre {
                Ok(u) => u,
                Err((key, op)) => UpdateRecord::new(self.oracle.next(), key, op),
            };
            st.buffer.push(update.clone());
            (update, seal)
        };
        let ts = update.ts;
        self.ingested_updates.fetch_add(1, Ordering::Relaxed);
        self.ingested_bytes
            .fetch_add(update.encoded_len() as u64, Ordering::Relaxed);
        // The WAL write happens outside the state lock; appenders
        // reserve disjoint offsets, so ordering across threads is
        // whatever the offsets say — recovery filters buffer-resident
        // updates by timestamp (`RunCreated.max_ts`), not log position.
        self.wal.append(session, &WalRecord::Update(update))?;
        if let Some((batch_id, bytes)) = seal {
            if background {
                let pool = self.workers.get().expect("background mode").pool();
                let t0 = session.now();
                if let Some(t) = self.trace() {
                    let track = self.track();
                    t.instant("batch.seal", track, t0, "bytes", bytes);
                    // The causal origin of the flush job: Perfetto draws
                    // ingest.enqueue → job.flush across threads.
                    t.flow_start("masm.flush", track, t0, self.flush_flow(batch_id));
                    t.span_event("ingest.enqueue", track, t0, 100, "batch", batch_id);
                }
                pool.enqueue_flush(self.shard_id, batch_id, bytes, t0);
                // Backpressure: wait until the un-flushed backlog drops
                // under the limit, never doing the I/O ourselves. The
                // stall span runs on the *global* clock — this lane's
                // session cursor does not advance while it sleeps.
                let stall_start = self.ssd.clock().now();
                if pool.wait_for_space() {
                    if let Some(t) = self.trace() {
                        let end = self.ssd.clock().now();
                        t.span_event(
                            "backpressure.stall",
                            self.track(),
                            stall_start,
                            end.saturating_sub(stall_start).max(1),
                            "batch",
                            batch_id,
                        );
                    }
                }
            } else {
                // Inline mode: materialize the run now. On error the
                // updates are still durable (WAL) and visible (sealed
                // batch is readable until explicitly abandoned); we
                // return them to the buffer so the next flush retries.
                if let Err(e) = self.flush_batch(session, batch_id) {
                    self.abandon_batch(batch_id);
                    return Err(e);
                }
            }
        }
        Ok(ts)
    }

    /// Seal the in-memory buffer into an immutable sealed batch
    /// (sorted, optionally duplicate-folded) and return its id and
    /// logical byte size. Caller holds the state lock.
    fn seal_batch_locked(&self, st: &mut EngineState, charge_backlog: bool) -> (u64, u64) {
        let updates = st.buffer.drain_sorted();
        let max_ts = updates.iter().map(|u| u.ts).max().unwrap_or(0);
        let updates = if self.cfg.merge_duplicates {
            // A pending reservation is a query at an unknown timestamp:
            // fold nothing until it resolves into a registered pin.
            let reserved = st.scan_reservations > 0;
            let active: Vec<Timestamp> = st.active_queries.keys().copied().collect();
            fold_duplicates(updates, &self.schema, |t1, t2| {
                !reserved && !active.iter().any(|&t| t1 < t && t <= t2)
            })
        } else {
            updates
        };
        let bytes: u64 = updates.iter().map(|u| u.encoded_len() as u64).sum();
        let id = st.next_batch;
        st.next_batch += 1;
        st.sealed.push(SealedBatch {
            id,
            max_ts,
            bytes,
            claimed: false,
            enqueued: charge_backlog,
            updates: Arc::new(updates),
        });
        (id, bytes)
    }

    /// Materialize sealed batch `batch_id` as a 1-pass run: claim it,
    /// build and write the run outside the lock, publish in a handoff
    /// critical section. Missing or already-claimed batches are a no-op
    /// (a concurrent migration may have drained the queue).
    fn flush_batch(&self, session: &SessionHandle, batch_id: u64) -> MasmResult<()> {
        let (updates, max_ts, run_id) = {
            let mut st = self.state.lock();
            let Some(batch) = st.sealed.iter_mut().find(|b| b.id == batch_id) else {
                return Ok(());
            };
            if batch.claimed {
                return Ok(());
            }
            batch.claimed = true;
            let updates = Arc::clone(&batch.updates);
            let max_ts = batch.max_ts;
            let run_id = st.runs.next_id();
            (updates, max_ts, run_id)
        };
        let _t = Timer::start(&self.metrics.flush, || session.now());
        let mut _sp = self.trace().map(|t| {
            let s = session.clone();
            let mut g = t.span("flush", self.track(), move || s.now());
            g.set_arg("batch", batch_id);
            g
        });
        match self.flush_claimed(session, &updates, max_ts, run_id, batch_id) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Unclaim so a retry (or migration's drain) can take
                // over; wake any waiter blocked on this batch.
                let mut st = self.state.lock();
                if let Some(batch) = st.sealed.iter_mut().find(|b| b.id == batch_id) {
                    batch.claimed = false;
                }
                drop(st);
                self.quiesce.notify_all();
                Err(e)
            }
        }
    }

    fn flush_claimed(
        &self,
        session: &SessionHandle,
        updates: &[UpdateRecord],
        max_ts: Timestamp,
        run_id: u64,
        batch_id: u64,
    ) -> MasmResult<()> {
        // Build first: the block format's encoded size (compression,
        // zone maps, bloom, footer) is only known after building, and
        // the run's SSD extent must be allocated before it is written.
        let (mut run, encoded) = build_run(&self.cfg, run_id, 0, 1, updates);
        let base = self.state.lock().runs.alloc_space(run.bytes);
        run.rebase(base);
        // Runs append from their own allocator cursor; prime the head
        // there so interleaved WAL/heap traffic on a shared clock never
        // reclassifies this strictly sequential stream (goal 2).
        self.ssd.prime_head_position(base);
        let written = (|| {
            write_built(session, &self.ssd, &run, &encoded)?;
            self.wal.append(
                session,
                &WalRecord::RunCreated {
                    id: run_id,
                    base,
                    bytes: run.bytes,
                    count: run.count,
                    passes: 1,
                    max_ts,
                },
            )
        })();
        if let Err(e) = written {
            // The extent stays burned until the quiesce rewind; only
            // the live-byte accounting is released.
            self.state.lock().runs.free_space(run.bytes);
            return Err(e);
        }
        self.account_run_added(&run);
        self.record_compression(&run);
        // Handoff: publish the run and retire the sealed batch in one
        // critical section so queries always see exactly one of them.
        let released = {
            let mut st = self.state.lock();
            st.runs.add(Arc::new(run));
            self.epoch.fetch_add(1, Ordering::AcqRel);
            let pos = st
                .sealed
                .iter()
                .position(|b| b.id == batch_id)
                .expect("claimed batch still sealed");
            let batch = st.sealed.remove(pos);
            batch.enqueued.then_some(batch.bytes)
        };
        if let Some(h) = self.workers.get() {
            h.pool().counters(self.shard_id).flushes.incr();
            if let Some(bytes) = released {
                h.pool().release_backlog(bytes);
            }
        }
        self.quiesce.notify_all();
        Ok(())
    }

    /// Materialize any buffered updates as a 1-pass sorted run now,
    /// synchronously (even in background mode). Public so callers
    /// (benchmarks, tests, maintenance jobs) can cut a run at a
    /// workload boundary instead of waiting for the buffer to fill; a
    /// no-op on an empty buffer.
    pub fn flush_buffer(&self, session: &SessionHandle) -> MasmResult<()> {
        let batch_id = {
            let mut st = self.state.lock();
            if st.buffer.is_empty() {
                return Ok(());
            }
            if st.runs.live_bytes() + st.buffer.bytes() as u64 > self.cfg.ssd_capacity {
                return Err(MasmError::CacheFull {
                    cached: st.runs.live_bytes(),
                    capacity: self.cfg.ssd_capacity,
                });
            }
            self.seal_batch_locked(&mut st, false).0
        };
        self.flush_batch(session, batch_id)
    }

    /// §3.5 "Handling Skews": when duplicates abound, collapse every
    /// live run into one. Duplicate updates in *overlapping* key ranges
    /// fold (subject to the active-query guard); blocks that overlap no
    /// other run move verbatim without being decoded, so any duplicates
    /// *within* such a block survive until a later overlap or migration
    /// retires them — the zero-decode trade. (Flush-time folding
    /// already collapses most intra-run duplicates before they reach a
    /// run.) Returns the [`MergeReport`] of the planned merge —
    /// `report.inputs` is the number of runs compacted (0 when fewer
    /// than two runs were live). Fully disjoint inputs compact with
    /// `bytes_decoded == 0`: every block moves verbatim.
    pub fn compact_runs(&self, session: &SessionHandle) -> MasmResult<MergeReport> {
        let plan: Vec<Arc<SortedRun>> = {
            let mut st = self.state.lock();
            if st.merging {
                return Ok(MergeReport::default());
            }
            let plan: Vec<Arc<SortedRun>> = st.runs.runs().to_vec();
            if plan.len() < 2 {
                return Ok(MergeReport::default());
            }
            st.merging = true;
            plan
        };
        self.execute_merge(session, plan, true)
    }

    /// Worker-side compaction: merge 1-pass runs down to the
    /// query-page budget, one planned merge at a time.
    fn background_compact(&self, session: &SessionHandle) -> MasmResult<()> {
        loop {
            let plan = {
                let mut st = self.state.lock();
                if st.merging || st.migrating {
                    return Ok(());
                }
                match st.runs.plan_merge(&self.cfg) {
                    Some(plan) => {
                        st.merging = true;
                        plan
                    }
                    None => return Ok(()),
                }
            };
            self.execute_merge(session, plan, self.cfg.merge_duplicates)?;
        }
    }

    /// The plan → execute merge pipeline: [`compact_block_runs`] plans
    /// move/merge segments from the inputs' zone maps, relinks
    /// non-overlapping blocks verbatim (move chunks pipelined `async`
    /// up to the configured device queue depth), and streams decodes of
    /// genuinely overlapping key ranges. The caller must have set
    /// `merging`; this clears it on every path.
    fn execute_merge(
        &self,
        session: &SessionHandle,
        plan: Vec<Arc<SortedRun>>,
        fold: bool,
    ) -> MasmResult<MergeReport> {
        let mut _sp = self.trace().map(|t| {
            let s = session.clone();
            let mut g = t.span("compact", self.track(), move || s.now());
            g.set_arg("inputs", plan.len() as u64);
            g
        });
        let result = self.execute_merge_inner(session, plan, fold);
        if result.is_err() {
            let mut st = self.state.lock();
            st.merging = false;
            self.maybe_rewind(&mut st);
            drop(st);
            self.quiesce.notify_all();
        }
        result
    }

    fn execute_merge_inner(
        &self,
        session: &SessionHandle,
        plan: Vec<Arc<SortedRun>>,
        fold: bool,
    ) -> MasmResult<MergeReport> {
        // Snapshot the active-query guard under the lock, then do the
        // whole read-merge-write outside it: the inputs are immutable
        // `Arc`s and the allocator hands out a private extent. A scan
        // reservation pending at snapshot time disables folding for this
        // merge: its timestamp is unknown, so every version spanning it
        // must survive. (A reservation arriving *after* the snapshot is
        // safe — its timestamp is drawn later, hence above every update
        // already frozen in these input runs.)
        let (active, reserved): (Vec<Timestamp>, bool) = {
            let st = self.state.lock();
            (
                st.active_queries.keys().copied().collect(),
                st.scan_reservations > 0,
            )
        };
        let guard =
            |t1: Timestamp, t2: Timestamp| !reserved && !active.iter().any(|&t| t1 < t && t <= t2);
        let (mut meta, encoded, report) = compact_block_runs(
            session,
            &self.ssd,
            &self.cfg,
            &self.schema,
            &plan,
            fold.then_some(&guard as &dyn Fn(Timestamp, Timestamp) -> bool),
        )?;
        let (id, base) = {
            let mut st = self.state.lock();
            (st.runs.next_id(), st.runs.alloc_space(meta.total_bytes))
        };
        meta.base = base;
        let run = SortedRun::from_meta(id, 2, meta);
        // The simulator tracks one head position shared by reads and
        // writes, so the output's first write would classify as random
        // purely because the merge just *read* its input runs — on
        // flash the new sequential write stream pays no such penalty.
        // Prime at the extent base to drop only that cross-stream
        // artifact; writes within the run still classify on their own
        // (an out-of-order writer would surface as random_writes > 0),
        // and the flush path is untouched, so a genuine backward jump
        // after the allocator rewinds stays visible there.
        self.ssd.prime_head_position(base);
        let old_ids: Vec<u64> = plan.iter().map(|r| r.id).collect();
        let written = (|| {
            write_built(session, &self.ssd, &run, &encoded)?;
            self.wal.append(
                session,
                &WalRecord::RunCreated {
                    id,
                    base,
                    bytes: run.bytes,
                    count: run.count,
                    passes: 2,
                    max_ts: run.max_ts,
                },
            )?;
            self.wal
                .append(session, &WalRecord::RunsDeleted(old_ids.clone()))
        })();
        if let Err(e) = written {
            self.state.lock().runs.free_space(run.bytes);
            return Err(e);
        }
        self.account_run_added(&run);
        self.record_compression(&run);
        // Handoff: swap inputs for the merged output atomically. The
        // inputs' SSD extents are retired, not freed — a pinned query
        // snapshot may still be reading them.
        {
            let mut st = self.state.lock();
            st.runs.add(Arc::new(run));
            self.account_runs_removed(&st, &old_ids);
            let freed: u64 = plan.iter().map(|r| r.bytes).sum();
            st.runs.remove_ids(&old_ids);
            st.retired_bytes += freed;
            st.merging = false;
            self.epoch.fetch_add(1, Ordering::AcqRel);
            self.maybe_rewind(&mut st);
        }
        if let Some(h) = self.workers.get() {
            h.pool().counters(self.shard_id).merges.incr();
        }
        self.record_merge(report);
        self.quiesce.notify_all();
        Ok(report)
    }

    /// Open a merged range scan of `[begin, end]` as of a fresh query
    /// timestamp. This replaces `Table_range_scan` in a query plan.
    pub fn begin_scan(
        self: &Arc<Self>,
        session: SessionHandle,
        begin: Key,
        end: Key,
    ) -> MasmResult<MergeScan> {
        self.begin_scan_at(session, begin, end, None, Vec::new())
    }

    /// Open a merged range scan at an explicit timestamp (snapshot
    /// isolation) with an optional private update overlay (a
    /// transaction's own writes; §3.6).
    pub fn begin_scan_at(
        self: &Arc<Self>,
        session: SessionHandle,
        begin: Key,
        end: Key,
        as_of: Option<Timestamp>,
        mut private: Vec<UpdateRecord>,
    ) -> MasmResult<MergeScan> {
        let _setup = self.trace().map(|t| {
            let s = session.clone();
            t.span("scan.setup", self.track(), move || s.now())
        });
        let background = self.live_pool().is_some();
        enum Setup {
            Flush(u64),
            Merge(Vec<Arc<SortedRun>>),
        }
        let mut enqueue_flush: Option<(u64, u64)> = None;
        let mut enqueue_compact = false;
        let (query_ts, mem_snapshot, sealed_snaps, runs) = loop {
            let mut st = self.state.lock();
            let mut action: Option<Setup> = None;
            // Fig. 8 scan setup, lines 1–4: flush a full buffer first. A
            // full SSD is not fatal here — the scan simply reads the
            // buffer through Mem_scan; the engine reports
            // `needs_migration`.
            if st.buffer.bytes() >= self.cfg.update_buffer_bytes() as usize
                && st.runs.live_bytes() + st.buffer.bytes() as u64 <= self.cfg.ssd_capacity
            {
                let (id, bytes) = self.seal_batch_locked(&mut st, background);
                if background {
                    // Sealed batches are query-visible; the flush runs
                    // in the background and this scan starts now.
                    enqueue_flush = Some((id, bytes));
                } else {
                    action = Some(Setup::Flush(id));
                }
            }
            // Lines 5–8: cap the number of open runs by the query
            // pages. In background mode the merge is requested, not
            // awaited — the scan reads the still-live 1-pass runs.
            if action.is_none() && st.runs.len() > self.cfg.query_pages() as usize {
                if background {
                    enqueue_compact = true;
                } else if !st.merging {
                    if let Some(plan) = st.runs.plan_merge(&self.cfg) {
                        st.merging = true;
                        action = Some(Setup::Merge(plan));
                    }
                }
            }
            match action {
                Some(Setup::Flush(id)) => {
                    drop(st);
                    if let Err(e) = self.flush_batch(&session, id) {
                        // Return the batch to the buffer (it is already
                        // durable in the WAL) so nothing is lost.
                        self.abandon_batch(id);
                        return Err(e);
                    }
                }
                Some(Setup::Merge(plan)) => {
                    drop(st);
                    self.execute_merge(&session, plan, self.cfg.merge_duplicates)?;
                }
                None => {
                    let query_ts = as_of.unwrap_or_else(|| self.oracle.next());
                    let mem_snapshot = st.buffer.snapshot_range(begin, end, query_ts);
                    let sealed_snaps: Vec<Arc<Vec<UpdateRecord>>> =
                        st.sealed.iter().map(|b| Arc::clone(&b.updates)).collect();
                    let runs: Vec<Arc<SortedRun>> = st.runs.runs().to_vec();
                    let pinned = runs.len() as u64;
                    st.active_queries.insert(
                        query_ts,
                        QueryPin {
                            pages: pinned,
                            epoch: self.epoch.load(Ordering::Acquire),
                        },
                    );
                    st.pinned_pages += pinned;
                    break (query_ts, mem_snapshot, sealed_snaps, runs);
                }
            }
        };
        if let (Some((id, bytes)), Some(h)) = (enqueue_flush, self.workers.get()) {
            if let Some(t) = self.trace() {
                let track = self.track();
                let t0 = session.now();
                t.instant("batch.seal", track, t0, "bytes", bytes);
                t.flow_start("masm.flush", track, t0, self.flush_flow(id));
            }
            h.pool()
                .enqueue_flush(self.shard_id, id, bytes, session.now());
        }
        if enqueue_compact {
            if let Some(h) = self.workers.get() {
                if let Some(t) = self.trace() {
                    let flow = t.next_flow_id();
                    self.compact_flow.store(flow, Ordering::Relaxed);
                    t.flow_start("masm.compact", self.track(), session.now(), flow);
                }
                h.pool().enqueue_compact(self.shard_id, session.now());
            }
        }

        let mut streams: Vec<UpdateStream> =
            Vec::with_capacity(runs.len() + sealed_snaps.len() + 2);
        for run in &runs {
            if run.max_key < begin || run.min_key > end {
                continue;
            }
            let mut scan = RunScan::with_cache(
                self.ssd.clone(),
                session.clone(),
                Arc::clone(run),
                Some(Arc::clone(&self.cache)),
                begin,
                end,
            )
            .with_fetch_histogram(Arc::clone(&self.metrics.block_fetch));
            if let Some(t) = self.tracer_arc() {
                scan = scan.with_trace(t, self.shard_id as u32);
            }
            streams.push(Box::new(scan));
        }
        // Sealed batches (awaiting background flush) are part of the
        // snapshot: their updates are not yet in any run.
        for batch in &sealed_snaps {
            let slice: Vec<UpdateRecord> = batch
                .iter()
                .filter(|u| u.key >= begin && u.key <= end)
                .cloned()
                .collect();
            if !slice.is_empty() {
                streams.push(Box::new(slice.into_iter()));
            }
        }
        streams.push(Box::new(mem_snapshot.into_iter()));
        if !private.is_empty() {
            private.sort_by_key(|a| (a.key, a.ts));
            private.retain(|u| u.key >= begin && u.key <= end);
            streams.push(Box::new(private.into_iter()));
        }

        let data = self.heap.scan_range(session.clone(), begin, end);
        let updates = MergeUpdates::new(streams, self.schema.clone(), query_ts);
        let join = MergeDataUpdates::new(data, updates, self.schema.clone());
        Ok(MergeScan {
            inner: join,
            engine: Arc::clone(self),
            session,
            ts: query_ts,
            cpu_per_record: 0,
            unreported: 0,
            stall: 0,
        })
    }

    /// Point lookup: the freshest visible version of `key`.
    ///
    /// Consults, in order, the in-memory update buffer, the
    /// materialized runs — per-run bloom filters reject runs that
    /// definitely lack the key with zero I/O, and needed blocks come
    /// through the shared [`BlockCache`] — and finally the heap page
    /// that would hold the key. All updates visible at the lookup's
    /// timestamp are applied to the heap base record (page timestamps
    /// skip updates a migration already folded in), so the result is
    /// exactly what a [`MasmEngine::begin_scan`] of `[key, key]` would
    /// return, at a fraction of the setup cost.
    pub fn get(self: &Arc<Self>, session: &SessionHandle, key: Key) -> MasmResult<Option<Record>> {
        let _t = Timer::start(&self.metrics.get, || session.now());
        let _sp = self.trace().and_then(|t| {
            let s = session.clone();
            t.op_span("get", self.track(), move || s.now())
        });
        // Register as an active query so a concurrent migration cannot
        // retire the runs (and recycle their SSD space) mid-lookup.
        let (ts, runs, sealed, mem) = {
            let mut st = self.state.lock();
            let ts = self.oracle.next();
            st.active_queries.insert(
                ts,
                QueryPin {
                    pages: 0,
                    epoch: self.epoch.load(Ordering::Acquire),
                },
            );
            let sealed: Vec<Arc<Vec<UpdateRecord>>> =
                st.sealed.iter().map(|b| Arc::clone(&b.updates)).collect();
            (
                ts,
                st.runs.runs().to_vec(),
                sealed,
                st.buffer.snapshot_range(key, key, ts),
            )
        };
        let result = (|| {
            let mut updates: Vec<UpdateRecord> = Vec::new();
            for run in &runs {
                updates.extend(
                    lookup_in_run(session, &self.ssd, run, Some(&self.cache), key)?
                        .into_iter()
                        .filter(|u| u.ts <= ts),
                );
            }
            for batch in &sealed {
                updates.extend(batch.iter().filter(|u| u.key == key && u.ts <= ts).cloned());
            }
            updates.extend(mem);
            updates.sort_by_key(|u| u.ts);

            let (base, page_ts) = match self.heap.locate(key) {
                Some(logical) => {
                    let page = self.heap.read_page(session, logical)?;
                    let rec = page.records().find(|r| r.key == key);
                    (rec, page.timestamp())
                }
                None => (None, 0),
            };
            let mut current = base;
            for u in updates {
                if u.ts > page_ts {
                    current = u.apply_to(current, &self.schema);
                }
            }
            Ok(current)
        })();
        self.finish_scan(ts);
        result
    }

    fn finish_scan(&self, ts: Timestamp) {
        let mut st = self.state.lock();
        let pinned = st.active_queries.remove(&ts).map_or(0, |pin| pin.pages);
        st.pinned_pages -= pinned.min(st.pinned_pages);
        self.maybe_rewind(&mut st);
        drop(st);
        self.quiesce.notify_all();
    }

    /// Announce a scan whose timestamp is not yet registered here.
    ///
    /// [`crate::ShardedEngine::scan_at`] draws one timestamp for all
    /// shards and then pins them one by one; a shard whose pin has not
    /// landed yet must not fold duplicate versions across the pending
    /// timestamp (seal-time or merge-time `fold_duplicates` would keep
    /// only the newer version, which the scan then filters out, exposing
    /// an older one — a backwards read) or migrate past it (heap pages
    /// stamped with a migration timestamp above the scan's mask the
    /// updates it should see). While at least one reservation is
    /// pending, duplicate folding keeps every version and the migration
    /// gate waits.
    pub(crate) fn reserve_scan(&self) {
        self.state.lock().scan_reservations += 1;
    }

    /// Resolve a [`MasmEngine::reserve_scan`]: the scan's timestamp is
    /// now registered in `active_queries` (or the scan was abandoned),
    /// so the ordinary per-timestamp guards take over.
    pub(crate) fn release_scan_reservation(&self) {
        let mut st = self.state.lock();
        debug_assert!(st.scan_reservations > 0, "unbalanced scan reservation");
        st.scan_reservations = st.scan_reservations.saturating_sub(1);
        drop(st);
        self.quiesce.notify_all();
    }

    /// Recycle retired run extents once the engine quiesces: no active
    /// query snapshot can still be reading a retired run, no sealed
    /// batch has an extent allocation in flight, and no merge or
    /// migration holds an unpublished extent. Until then the bump
    /// allocator never reuses space, which is what makes lock-free
    /// snapshot reads of retired runs safe.
    fn maybe_rewind(&self, st: &mut EngineState) {
        if st.retired_bytes == 0
            || !st.active_queries.is_empty()
            || !st.sealed.is_empty()
            || st.merging
            || st.migrating
        {
            return;
        }
        if let Some(t) = self.trace() {
            // Emitting under the state lock is fine: the recorder is
            // lock-free and never does I/O.
            t.instant(
                "epoch.retire",
                self.track(),
                self.ssd.clock().now(),
                "bytes",
                st.retired_bytes,
            );
        }
        st.retired_bytes = 0;
        // Recompute allocator state from the live runs: retired run
        // space becomes reusable only now that no scan can touch it.
        let (mut high, mut live) = (0u64, 0u64);
        for r in st.runs.runs() {
            high = high.max(r.base + r.bytes);
            live += r.bytes;
        }
        st.runs
            .set_space(SsdSpace::with_state(self.cfg.ssd_region_base, high, live));
    }

    /// Migrate all currently materialized runs back into the main data,
    /// in place (§3.2 "In-Place Migration"). Blocks until queries older
    /// than the migration timestamp finish; queries arriving afterwards
    /// run concurrently and stay correct via page timestamps.
    pub fn migrate(self: &Arc<Self>, session: &SessionHandle) -> MasmResult<MigrationReport> {
        {
            let mut st = self.state.lock();
            if st.migrating {
                return Ok(MigrationReport::default());
            }
            st.migrating = true;
        }
        let _sp = self.trace().map(|t| {
            let s = session.clone();
            t.span("migrate", self.track(), move || s.now())
        });
        let result = self.migrate_inner(session);
        if result.is_err() {
            // Error path must never wedge the engine: clear the claim
            // so the next migrate (or retry) can run, and wake waiters.
            let mut st = self.state.lock();
            st.migrating = false;
            self.maybe_rewind(&mut st);
            drop(st);
            self.quiesce.notify_all();
        }
        result
    }

    /// Drain buffered and sealed updates into runs so every update
    /// earlier than the migration timestamp lives in a run: migrated
    /// pages carry `mig_ts`, which must truthfully mean "all updates
    /// with ts ≤ mig_ts are in this page". Returns the migration
    /// timestamp and run snapshot, or `None` when there is nothing to
    /// migrate. Caller must hold the `migrating` claim.
    fn quiesce_updates_for_migration(
        &self,
        session: &SessionHandle,
    ) -> MasmResult<Option<(Timestamp, Vec<Arc<SortedRun>>)>> {
        loop {
            let flush_id = {
                let mut st = self.state.lock();
                if !st.buffer.is_empty() {
                    Some(self.seal_batch_locked(&mut st, false).0)
                } else if let Some(b) = st.sealed.iter().find(|b| !b.claimed) {
                    Some(b.id)
                } else if !st.sealed.is_empty() {
                    // A worker owns the remaining batches; wait for it
                    // to publish (or unclaim on error) and re-check.
                    self.quiesce.wait(st.inner_mut());
                    continue;
                } else if st.runs.is_empty() {
                    return Ok(None);
                } else {
                    return Ok(Some((self.oracle.next(), st.runs.runs().to_vec())));
                }
            };
            if let Some(id) = flush_id {
                self.flush_batch(session, id)?;
            }
        }
    }

    fn migrate_inner(self: &Arc<Self>, session: &SessionHandle) -> MasmResult<MigrationReport> {
        let Some((mig_ts, runs)) = self.quiesce_updates_for_migration(session)? else {
            self.state.lock().migrating = false;
            return Ok(MigrationReport::default());
        };
        self.wal.append(
            session,
            &WalRecord::MigrationBegin {
                ts: mig_ts,
                run_ids: runs.iter().map(|r| r.id).collect(),
            },
        )?;
        // Past the early returns: this is a real migration, time it
        // end-to-end (quiesce wait + merge + run retirement).
        let _t = Timer::start(&self.metrics.migrate, || session.now());

        // Wait for queries earlier than t (§3.2), and for pending scan
        // reservations — their timestamps are unknown and may land below
        // t. Queries arriving after t run concurrently throughout — page
        // timestamps keep them correct, and the runs' SSD extents stay
        // allocated until the post-quiesce rewind.
        {
            // Session cursors do not advance while parked on the
            // condvar, so the quiesce wait is timed on the global
            // device clock.
            let q0 = self.ssd.clock().now();
            let mut st = self.state.lock();
            while st.scan_reservations > 0
                || st.active_queries.keys().next().is_some_and(|&t| t < mig_ts)
            {
                self.quiesce.wait(st.inner_mut());
            }
            drop(st);
            let q1 = self.ssd.clock().now();
            if q1 > q0 {
                if let Some(t) = self.trace() {
                    t.span_event("migrate.quiesce", self.track(), q0, q1 - q0, "ts", mig_ts);
                }
            }
        }

        let report = self.drive_migration(session, mig_ts, &runs)?;

        let ids: Vec<u64> = runs.iter().map(|r| r.id).collect();
        self.wal
            .append(session, &WalRecord::RunsDeleted(ids.clone()))?;
        self.wal
            .append(session, &WalRecord::MigrationEnd { ts: mig_ts })?;
        // Handoff: retire the migrated runs. Their extents are recycled
        // only at the quiesce rewind, so queries that started after
        // `mig_ts` and still hold the old snapshot keep reading safely.
        {
            let mut st = self.state.lock();
            self.account_runs_removed(&st, &ids);
            let freed: u64 = runs.iter().map(|r| r.bytes).sum();
            st.runs.remove_ids(&ids);
            st.retired_bytes += freed;
            st.migrating = false;
            self.epoch.fetch_add(1, Ordering::AcqRel);
            self.maybe_rewind(&mut st);
        }
        if let Some(h) = self.workers.get() {
            h.pool().counters(self.shard_id).migrations.incr();
        }
        self.quiesce.notify_all();
        Ok(report)
    }

    /// Partial (per-range) migration — §3.5 "Improving Migration":
    /// apply only the cached updates whose keys fall in `[begin, end]`
    /// to the overlapping data pages, distributing migration cost across
    /// several smaller operations. Runs are **not** deleted (they still
    /// hold updates outside the range); a later full [`MasmEngine::migrate`]
    /// retires them. Page timestamps keep double-application impossible,
    /// so partial and full migrations compose freely.
    pub fn migrate_range(
        self: &Arc<Self>,
        session: &SessionHandle,
        begin: Key,
        end: Key,
    ) -> MasmResult<MigrationReport> {
        {
            let mut st = self.state.lock();
            if st.migrating || (st.runs.is_empty() && st.buffer.is_empty() && st.sealed.is_empty())
            {
                return Ok(MigrationReport::default());
            }
            st.migrating = true;
        }
        let result = self.migrate_range_inner(session, begin, end);
        if result.is_err() {
            let mut st = self.state.lock();
            st.migrating = false;
            self.maybe_rewind(&mut st);
            drop(st);
            self.quiesce.notify_all();
        }
        result
    }

    fn migrate_range_inner(
        self: &Arc<Self>,
        session: &SessionHandle,
        begin: Key,
        end: Key,
    ) -> MasmResult<MigrationReport> {
        let Some((mig_ts, runs)) = self.quiesce_updates_for_migration(session)? else {
            self.state.lock().migrating = false;
            return Ok(MigrationReport::default());
        };
        let _t = Timer::start(&self.metrics.migrate, || session.now());
        // Queries older than the migration timestamp must not observe
        // pages stamped with it (§3.2); a pending scan reservation may
        // resolve below it, so it blocks too.
        {
            let mut st = self.state.lock();
            while st.scan_reservations > 0
                || st.active_queries.keys().next().is_some_and(|&t| t < mig_ts)
            {
                self.quiesce.wait(st.inner_mut());
            }
        }

        // Fan-in-driven prefetch: each of the k run scans keeps k reads
        // in flight so the device queue stays full (§3.7 at scale).
        let overlapping: Vec<&Arc<SortedRun>> = runs
            .iter()
            .filter(|r| r.max_key >= begin && r.min_key <= end)
            .collect();
        let depth = self.cfg.merge_prefetch_depth(overlapping.len());
        let streams: Vec<UpdateStream> = overlapping
            .into_iter()
            .map(|r| {
                Box::new(
                    RunScan::new(self.ssd.clone(), session.clone(), Arc::clone(r), begin, end)
                        .with_prefetch_depth(depth),
                ) as UpdateStream
            })
            .collect();
        let updates = MergeUpdates::new(streams, self.schema.clone(), mig_ts).peekable();
        let mut rewriter = self.heap.rewriter_range(session.clone(), begin, end);
        let report =
            self.rewrite_with_updates(session, mig_ts, updates, &mut rewriter, runs.len())?;
        rewriter.finish();

        {
            let mut st = self.state.lock();
            st.migrating = false;
            self.maybe_rewind(&mut st);
        }
        self.quiesce.notify_all();
        Ok(report)
    }

    /// The migration inner loop: chunked merge of the heap with the
    /// sorted runs, writing pages stamped with the migration timestamp.
    fn drive_migration(
        &self,
        session: &SessionHandle,
        mig_ts: Timestamp,
        runs: &[Arc<SortedRun>],
    ) -> MasmResult<MigrationReport> {
        // Migration reads bypass the block cache: the runs are retired as
        // soon as the migration completes, so inserting their blocks
        // would evict hot query blocks for entries that can never be hit
        // again (run ids are not reused). Prefetch depth follows the
        // migration fan-in so all k run scans keep the SSD queue full
        // while the merged stream drains into the heap rewrite.
        let depth = self.cfg.merge_prefetch_depth(runs.len());
        let streams: Vec<UpdateStream> = runs
            .iter()
            .map(|r| {
                Box::new(
                    RunScan::new(
                        self.ssd.clone(),
                        session.clone(),
                        Arc::clone(r),
                        0,
                        Key::MAX,
                    )
                    .with_prefetch_depth(depth),
                ) as UpdateStream
            })
            .collect();
        let mut updates = MergeUpdates::new(streams, self.schema.clone(), mig_ts).peekable();
        let mut applied = 0u64;

        if self.heap.num_pages() == 0 {
            // Empty table: materialize all insert/replace updates as a
            // fresh bulk load.
            let records: Vec<Record> = std::iter::from_fn(|| updates.next())
                .filter_map(|u| {
                    applied += 1;
                    u.apply_to(None, &self.schema)
                })
                .collect();
            if !records.is_empty() {
                self.heap.bulk_load(session, records, 1.0)?;
                self.log_heap_loaded(session, self.oracle.next())?;
            }
            return Ok(MigrationReport {
                ts: mig_ts,
                runs_migrated: runs.len(),
                updates_applied: applied,
                pages_written: self.heap.num_pages() as u64,
            });
        }

        let mut rewriter = self.heap.rewriter(session.clone());
        let mut report =
            self.rewrite_with_updates(session, mig_ts, updates, &mut rewriter, runs.len())?;
        rewriter.finish();
        report.updates_applied += applied;
        Ok(report)
    }

    /// Shared chunk-merge loop of full and partial migration: pull
    /// chunks from `rewriter`, outer-join them with `updates`, and
    /// commit pages stamped with the migration timestamp.
    fn rewrite_with_updates(
        &self,
        session: &SessionHandle,
        mig_ts: Timestamp,
        mut updates: std::iter::Peekable<MergeUpdates>,
        rewriter: &mut masm_pagestore::HeapRewriter<'_>,
        runs_count: usize,
    ) -> MasmResult<MigrationReport> {
        let mut applied = 0u64;
        let mut pages_written = 0u64;
        let page_size = self.heap.config().page_size;
        while let Some(old_pages) = rewriter.next_chunk()? {
            let at_end = rewriter.at_end();
            let chunk_max = old_pages
                .iter()
                .filter_map(|p| p.max_key())
                .max()
                .unwrap_or(Key::MAX);

            let mut out: Vec<Record> = Vec::new();
            for page in &old_pages {
                let page_ts = page.timestamp();
                for record in page.records() {
                    // Emit updates for keys before this record.
                    while updates.peek().is_some_and(|u| u.key < record.key) {
                        let u = updates.next().expect("peeked");
                        applied += 1;
                        if let Some(r) = u.apply_to(None, &self.schema) {
                            out.push(r);
                        }
                    }
                    if updates.peek().is_some_and(|u| u.key == record.key) {
                        let u = updates.next().expect("peeked");
                        applied += 1;
                        let base = Some(record);
                        let merged = if u.ts > page_ts {
                            u.apply_to(base, &self.schema)
                        } else {
                            base
                        };
                        if let Some(r) = merged {
                            out.push(r);
                        }
                    } else {
                        out.push(record);
                    }
                }
            }
            // Absorb gap/trailing inserts belonging to this chunk.
            while updates.peek().is_some_and(|u| at_end || u.key <= chunk_max) {
                let u = updates.next().expect("peeked");
                applied += 1;
                if let Some(r) = u.apply_to(None, &self.schema) {
                    out.push(r);
                }
            }
            out.sort_by_key(|r| r.key);

            let mut new_pages: Vec<Page> = Vec::with_capacity(old_pages.len());
            let mut cur = Page::new(page_size);
            cur.set_timestamp(mig_ts);
            for r in &out {
                if !cur.fits(r) {
                    new_pages.push(std::mem::replace(&mut cur, Page::new(page_size)));
                    cur.set_timestamp(mig_ts);
                }
                assert!(cur.append(r), "record exceeds page size");
            }
            if cur.record_count() > 0 {
                new_pages.push(cur);
            }
            pages_written += new_pages.len() as u64;
            let commit = rewriter.commit_chunk(new_pages)?;
            self.wal.append(
                session,
                &WalRecord::MapSplice {
                    seq: self.oracle.next(),
                    commit,
                },
            )?;
        }

        Ok(MigrationReport {
            ts: mig_ts,
            runs_migrated: runs_count,
            updates_applied: applied,
            pages_written,
        })
    }

    /// Rebuild an engine after a crash: heap metadata, run set, and the
    /// in-memory update buffer come back from the redo log and the
    /// (durable) SSD; an interrupted migration is re-driven to
    /// completion (idempotent thanks to page timestamps). A torn WAL
    /// tail — a record cut off mid-append by the crash — is truncated
    /// and reported in [`RecoveryReport::wal_torn_bytes`]; corruption
    /// anywhere *before* the tail stays a hard error.
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
        cfg.validate()?;
        let session = SessionHandle::fresh(ssd.clock().clone());
        let mut parsed = Self::parse_wal(&session, &wal_dev)?;
        apply_heap_events(&heap, std::mem::take(&mut parsed.heap_events));
        let unfinished = parsed.unfinished_migration;
        let (engine, mut report) = Self::recover_from_parsed(
            heap,
            ssd,
            wal_dev,
            schema,
            cfg,
            TimestampOracle::new(),
            0,
            true,
            parsed,
            tracer,
        )?;
        if unfinished {
            engine.migrate(&session)?;
            engine.note_migration_redriven();
            report.redid_migration = true;
        }
        Ok((engine, report))
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
                    max_ts: run_max_ts,
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
                        // Updates at or below the run's max timestamp
                        // are durable in the run; the rest were still
                        // buffer-resident at the crash. A timestamp
                        // filter (not log position) because concurrent
                        // appenders interleave Update and RunCreated
                        // records; re-applied duplicates are idempotent.
                        parsed.pending.retain(|u| u.ts > run_max_ts);
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

    /// Build an engine from a parsed redo log — the one construction
    /// site; [`MasmEngine::build`] passes the empty log. The heap must
    /// already hold its recovered metadata (see [`apply_heap_events`] —
    /// applied per log by [`MasmEngine::recover_traced`], or merged
    /// across all logs by [`crate::ShardedEngine::recover`]). The
    /// shared `oracle` is advanced past this log's durable maximum
    /// (order-independent, so shards fold in any order). Does *not*
    /// re-drive an interrupted migration — the caller owns that (and
    /// its cross-shard staggering).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recover_from_parsed(
        heap: Arc<TableHeap>,
        ssd: SimDevice,
        wal_dev: SimDevice,
        schema: Schema,
        cfg: MasmConfig,
        oracle: TimestampOracle,
        shard_id: usize,
        spawn_workers: bool,
        parsed: ParsedWal,
        tracer: Option<Arc<Tracer>>,
    ) -> MasmResult<(Arc<Self>, RecoveryReport)> {
        cfg.validate()?;
        let t0 = ssd.clock().now();
        let session = SessionHandle::fresh(ssd.clock().clone());
        let ParsedWal {
            live_runs,
            pending,
            mut max_ts,
            end_offset,
            torn_bytes,
            records_replayed,
            ..
        } = parsed;

        // Re-open run metadata from the durable, checksummed block-run
        // footers: zone maps, bloom filters, and key/timestamp bounds
        // come back without decoding a single update record.
        let mut runs = RunSet::new();
        let mut high_water = 0u64;
        let mut live_bytes = 0u64;
        let mut rebuilt: Vec<Arc<SortedRun>> = Vec::new();
        for (id, info) in &live_runs {
            let run = recover_run(&session, &ssd, *id, info.base, info.bytes, info.passes)?;
            max_ts = max_ts.max(run.max_ts);
            high_water = high_water.max(info.base + info.bytes);
            live_bytes += info.bytes;
            rebuilt.push(Arc::new(run));
        }
        runs.set_space(SsdSpace::with_state(
            cfg.ssd_region_base,
            high_water,
            live_bytes,
        ));
        for r in rebuilt {
            runs.add(r);
        }
        if let Some(last) = live_runs.keys().next_back() {
            runs.resume_ids_after(*last);
        }
        let runs_recovered = runs.len();

        // The engine only ever appends runs from its high-water mark
        // (the region base when fresh); prime the head there so the
        // first run write on a device without a head position — fresh,
        // or a crash snapshot — is classified sequential (design goal
        // 2: random_writes == 0, also across a crash). On a shared
        // device that already has a head position this is a no-op —
        // another engine's accounting must not be rewritten. (The WAL
        // head is primed where the log was read, in `parse_wal`.)
        ssd.prime_head_position_if_unset(high_water.max(cfg.ssd_region_base));

        oracle.advance_past(max_ts);

        let mut buffer = UpdateBuffer::new(cfg.update_buffer_bytes() as usize);
        let updates_recovered = pending.len() as u64;
        for u in pending {
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
            state: TrackedMutex::new(EngineState {
                buffer,
                runs,
                sealed: Vec::new(),
                next_batch: 0,
                active_queries: BTreeMap::new(),
                pinned_pages: 0,
                retired_bytes: 0,
                merging: false,
                migrating: false,
                scan_reservations: 0,
            }),
            quiesce: Condvar::new(),
            wal: Wal::new(wal_dev, end_offset),
            epoch: AtomicU64::new(0),
            workers: OnceLock::new(),
            shard_id,
            ingested_updates: AtomicU64::new(0),
            ingested_bytes: AtomicU64::new(0),
            commit_index: Mutex::new(std::collections::HashMap::new()),
            last_merge: Mutex::new(None),
            merge_totals: Mutex::new(MergeReport::default()),
            compression_totals: Mutex::new(compression),
            metrics: EngineMetrics::new(),
            tracer: OnceLock::new(),
            compact_flow: AtomicU64::new(0),
            migrate_flow: AtomicU64::new(0),
        });
        if let Some(t) = tracer {
            engine.install_tracer(t);
        }
        if spawn_workers {
            Self::start_workers(&engine);
        }

        let rc = &engine.metrics.recovery;
        rc.records_replayed.add(records_replayed);
        rc.updates_rebuilt.add(updates_recovered);
        rc.runs_recovered.add(runs_recovered as u64);
        if torn_bytes > 0 {
            rc.torn_tail.add(1);
            rc.torn_bytes.add(torn_bytes);
        }
        if let Some(t) = engine.trace() {
            let t1 = engine.ssd.clock().now();
            t.span_event(
                "recovery",
                engine.track(),
                t0,
                (t1 - t0).max(1),
                "records",
                records_replayed,
            );
            if torn_bytes > 0 {
                t.instant(
                    "recovery.torn_tail",
                    engine.track(),
                    t1,
                    "bytes",
                    torn_bytes,
                );
            }
        }

        let report = RecoveryReport {
            updates_recovered,
            runs_recovered,
            redid_migration: false,
            wal_records_replayed: records_replayed,
            wal_torn_bytes: torn_bytes,
        };
        Ok((engine, report))
    }

    /// Record (counter + trace instant) that an interrupted migration
    /// was re-driven to completion on this engine during recovery.
    pub(crate) fn note_migration_redriven(&self) {
        self.metrics.recovery.migrations_redriven.add(1);
        if let Some(t) = self.trace() {
            t.instant(
                "recovery.migration_redo",
                self.track(),
                self.ssd.clock().now(),
                "shard",
                self.shard_id as u64,
            );
        }
    }
}

/// A merged range scan: the operator tree of Figure 6 rooted at
/// `Merge_data_updates`, plus the bookkeeping that lets migration wait
/// for earlier queries.
///
/// `next` pops from the join's buffer; everything with a lock or an
/// atomic in it — session-clock reads, the `scan_next` histogram, the
/// optional CPU charge — happens in `refill`, once per heap page.
pub struct MergeScan {
    inner: MergeDataUpdates<RangeScan, MergeUpdates>,
    engine: Arc<MasmEngine>,
    session: SessionHandle,
    ts: Timestamp,
    cpu_per_record: u64,
    /// Records returned and session time spent in refills since
    /// `scan_next` was last brought up to date.
    unreported: u64,
    stall: Ns,
}

impl MergeScan {
    /// This query's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// Inject CPU cost per returned record (Figure 13's experiment).
    pub fn with_cpu_per_record(mut self, ns: u64) -> Self {
        self.cpu_per_record = ns;
        self
    }

    /// The heap read error that ended the scan early, if one did: the
    /// records returned so far are right, but they are not all of them.
    pub fn error(&self) -> Option<&StorageError> {
        self.inner.error()
    }

    /// Bring `scan_next` up to date: one sample per record returned —
    /// the first carries the stall that preceded it, the rest cost
    /// nothing — so a scan dropped early reports exactly what it
    /// returned.
    fn report(&mut self) {
        if self.unreported > 0 {
            let hist = &self.engine.metrics.scan_next;
            hist.record(self.stall);
            hist.record_n(0, self.unreported - 1);
            (self.unreported, self.stall) = (0, 0);
        }
    }

    fn refill(&mut self) {
        let start = self.session.now();
        let (session, cpu) = (&self.session, self.cpu_per_record);
        self.inner.refill(|| {
            if cpu > 0 {
                session.cpu(cpu);
            }
        });
        let stall = self.session.now().saturating_sub(start);
        if stall > 0 {
            // The session clock only moves inside an I/O wait (or a CPU
            // charge): the records before it are settled.
            self.report();
            self.stall += stall;
        }
    }
}

impl Iterator for MergeScan {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        let record = match self.inner.pop() {
            Some(record) => record,
            None => {
                self.refill();
                self.inner.pop()?
            }
        };
        self.unreported += 1;
        Some(record)
    }
}

impl Drop for MergeScan {
    fn drop(&mut self) {
        self.report();
        self.engine.finish_scan(self.ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masm_pagestore::HeapConfig;
    use masm_storage::{DeviceProfile, SimClock};

    fn schema() -> Schema {
        Schema::synthetic_100b()
    }

    fn payload(measure: u32) -> Vec<u8> {
        let s = schema();
        let mut p = s.empty_payload();
        s.set_u32(&mut p, 0, measure);
        p
    }

    struct Fixture {
        engine: Arc<MasmEngine>,
        session: SessionHandle,
        #[allow(dead_code)]
        clock: SimClock,
    }

    fn fixture(n_records: u64) -> Fixture {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let wal_dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
        let engine =
            MasmEngine::new(heap, ssd, wal_dev, schema(), MasmConfig::small_for_tests()).unwrap();
        let session = SessionHandle::fresh(clock.clone());
        if n_records > 0 {
            engine
                .load_table(
                    &session,
                    (0..n_records).map(|i| Record::new(i * 2, payload(i as u32))),
                    1.0,
                )
                .unwrap();
        }
        Fixture {
            engine,
            session,
            clock,
        }
    }

    fn scan_keys(f: &Fixture, begin: Key, end: Key) -> Vec<Key> {
        f.engine
            .begin_scan(f.session.clone(), begin, end)
            .unwrap()
            .map(|r| r.key)
            .collect()
    }

    #[test]
    fn scan_without_updates_matches_heap() {
        let f = fixture(1000);
        let keys = scan_keys(&f, 0, u64::MAX);
        assert_eq!(keys.len(), 1000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn freshly_applied_updates_visible_to_scans() {
        let f = fixture(100);
        // Insert an odd key, delete an even key, modify another.
        f.engine
            .apply_update(&f.session, 41, UpdateOp::Insert(payload(999)))
            .unwrap();
        f.engine
            .apply_update(&f.session, 10, UpdateOp::Delete)
            .unwrap();
        f.engine
            .apply_update(
                &f.session,
                20,
                UpdateOp::Modify(vec![crate::update::FieldPatch {
                    field: 0,
                    value: 777u32.to_le_bytes().to_vec(),
                }]),
            )
            .unwrap();
        let recs: Vec<Record> = f
            .engine
            .begin_scan(f.session.clone(), 0, 60)
            .unwrap()
            .collect();
        let keys: Vec<Key> = recs.iter().map(|r| r.key).collect();
        assert!(keys.contains(&41), "insert visible");
        assert!(!keys.contains(&10), "delete visible");
        let r20 = recs.iter().find(|r| r.key == 20).unwrap();
        assert_eq!(schema().get_u32(&r20.payload, 0), 777, "modify visible");
    }

    #[test]
    fn updates_after_query_start_invisible() {
        let f = fixture(100);
        let scan = f.engine.begin_scan(f.session.clone(), 0, u64::MAX).unwrap();
        // This update commits after the scan's timestamp.
        f.engine
            .apply_update(&f.session, 31, UpdateOp::Insert(payload(1)))
            .unwrap();
        let keys: Vec<Key> = scan.map(|r| r.key).collect();
        assert!(!keys.contains(&31));
        // A later scan sees it.
        assert!(scan_keys(&f, 0, u64::MAX).contains(&31));
    }

    #[test]
    fn buffer_flushes_to_runs_and_stays_visible() {
        let f = fixture(1000);
        // Push enough updates to force several flushes.
        for i in 0..3000u64 {
            f.engine
                .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(i as u32)))
                .unwrap();
        }
        assert!(f.engine.run_count() > 0, "runs materialized");
        let keys = scan_keys(&f, 0, 1000);
        // All odd and even keys up to 1000.
        assert_eq!(keys.len(), 1001);
        assert!(keys.windows(2).all(|w| w[0] + 1 == w[1]));
    }

    #[test]
    fn no_random_ssd_writes_design_goal_2() {
        let f = fixture(100);
        f.engine.ssd().reset_stats();
        for i in 0..5000u64 {
            f.engine
                .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(1)))
                .unwrap();
        }
        // Flushes, and possibly 2-pass merges, happened.
        let stats = f.engine.ssd().stats();
        assert!(stats.write_ops > 0);
        // Run allocations are contiguous; at most one "random" write per
        // run start (no predecessor continuation).
        assert!(
            stats.random_writes as usize <= f.engine.run_count() + 64,
            "{stats:?}"
        );
    }

    #[test]
    fn migration_applies_everything_and_clears_runs() {
        let f = fixture(500);
        for i in 0..1500u64 {
            f.engine
                .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(7)))
                .unwrap();
        }
        f.engine
            .apply_update(&f.session, 100, UpdateOp::Delete)
            .unwrap();
        let before = scan_keys(&f, 0, u64::MAX);
        let report = f.engine.migrate(&f.session).unwrap();
        assert!(report.runs_migrated > 0);
        assert_eq!(f.engine.run_count(), 0, "runs deleted after migration");
        let after = scan_keys(&f, 0, u64::MAX);
        // Buffered (unflushed) updates still overlay correctly.
        assert_eq!(before, after, "migration must not change query results");
        assert!(!after.contains(&100));
    }

    #[test]
    fn scan_during_migration_window_is_correct() {
        // A scan opened *after* migration's timestamp sees a mix of
        // migrated pages and still-live runs; page timestamps prevent
        // double-application.
        let f = fixture(300);
        for i in 0..900u64 {
            f.engine
                .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(3)))
                .unwrap();
        }
        let expect = scan_keys(&f, 0, u64::MAX);
        f.engine.migrate(&f.session).unwrap();
        let got = scan_keys(&f, 0, u64::MAX);
        assert_eq!(expect, got);
        // Apply the same logical updates again: idempotence of replace.
        for i in 0..900u64 {
            f.engine
                .apply_update(&f.session, i * 2 + 1, UpdateOp::Replace(payload(3)))
                .unwrap();
        }
        let again = scan_keys(&f, 0, u64::MAX);
        assert_eq!(expect, again);
    }

    #[test]
    fn small_range_scans_after_many_updates() {
        let f = fixture(5000);
        for i in 0..4000u64 {
            f.engine
                .apply_update(
                    &f.session,
                    ((i * 37) % 10000) | 1,
                    UpdateOp::Insert(payload(i as u32)),
                )
                .unwrap();
        }
        let keys = scan_keys(&f, 5000, 5100);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.iter().all(|&k| (5000..=5100).contains(&k)));
        // All even keys in range must be present.
        for k in (5000..=5100).step_by(2) {
            assert!(keys.contains(&k), "missing base key {k}");
        }
    }

    #[test]
    fn crash_recovery_restores_buffer_and_runs() {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let wal_dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
        let session = SessionHandle::fresh(clock.clone());
        let engine = MasmEngine::new(
            heap,
            ssd.clone(),
            wal_dev.clone(),
            schema(),
            MasmConfig::small_for_tests(),
        )
        .unwrap();
        engine
            .load_table(
                &session,
                (0..500u64).map(|i| Record::new(i * 2, payload(i as u32))),
                1.0,
            )
            .unwrap();
        for i in 0..1200u64 {
            engine
                .apply_update(&session, i * 2 + 1, UpdateOp::Insert(payload(5)))
                .unwrap();
        }
        let expect = engine
            .begin_scan(session.clone(), 0, u64::MAX)
            .unwrap()
            .map(|r| r.key)
            .collect::<Vec<_>>();
        let buffered = engine.buffered_updates();
        let runs = engine.run_count();
        assert!(buffered > 0 && runs > 0, "need both tiers for the test");

        // "Crash": drop the engine; devices survive. Rebuild a fresh heap
        // handle over the same disk device (metadata comes from the WAL).
        drop(engine);
        let heap2 = Arc::new(TableHeap::new(disk, HeapConfig::default()));
        let (engine2, report) =
            MasmEngine::recover(heap2, ssd, wal_dev, schema(), MasmConfig::small_for_tests())
                .unwrap();
        assert_eq!(report.updates_recovered as usize, buffered);
        assert_eq!(report.runs_recovered, runs);
        assert!(!report.redid_migration);
        let got: Vec<Key> = engine2
            .begin_scan(session, 0, u64::MAX)
            .unwrap()
            .map(|r| r.key)
            .collect();
        assert_eq!(expect, got, "post-recovery scans see all updates");
    }

    #[test]
    fn crash_during_migration_is_redone() {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let wal_dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
        let session = SessionHandle::fresh(clock.clone());
        let engine = MasmEngine::new(
            heap,
            ssd.clone(),
            wal_dev.clone(),
            schema(),
            MasmConfig::small_for_tests(),
        )
        .unwrap();
        engine
            .load_table(
                &session,
                (0..400u64).map(|i| Record::new(i * 2, payload(i as u32))),
                1.0,
            )
            .unwrap();
        for i in 0..900u64 {
            engine
                .apply_update(&session, i * 2 + 1, UpdateOp::Insert(payload(9)))
                .unwrap();
        }
        let expect: Vec<Key> = engine
            .begin_scan(session.clone(), 0, u64::MAX)
            .unwrap()
            .map(|r| r.key)
            .collect();
        // Simulate a crash mid-migration: log MigrationBegin but stop.
        // (The state lock is dropped before the WAL append — holding it
        // across device I/O trips the lock-discipline debug assert.)
        let ids: Vec<u64> = {
            let st = engine.state.lock();
            st.runs.runs().iter().map(|r| r.id).collect()
        };
        engine
            .wal
            .append(
                &session,
                &WalRecord::MigrationBegin {
                    ts: engine.oracle.next(),
                    run_ids: ids,
                },
            )
            .unwrap();
        drop(engine);
        let heap2 = Arc::new(TableHeap::new(disk, HeapConfig::default()));
        let (engine2, report) =
            MasmEngine::recover(heap2, ssd, wal_dev, schema(), MasmConfig::small_for_tests())
                .unwrap();
        assert!(report.redid_migration);
        assert_eq!(
            engine2.run_count(),
            0,
            "migration completed during recovery"
        );
        let got: Vec<Key> = engine2
            .begin_scan(session, 0, u64::MAX)
            .unwrap()
            .map(|r| r.key)
            .collect();
        assert_eq!(expect, got);
    }

    #[test]
    fn run_count_stays_within_query_page_budget_at_scan_setup() {
        let f = fixture(200);
        let budget = f.engine.config().query_pages() as usize;
        for i in 0..40_000u64 {
            f.engine
                .apply_update(&f.session, (i % 399) | 1, UpdateOp::Replace(payload(1)))
                .unwrap();
        }
        // Trigger scan setup (merges runs down to the budget).
        let _ = scan_keys(&f, 0, 10);
        assert!(
            f.engine.run_count() <= budget,
            "runs {} > budget {budget}",
            f.engine.run_count()
        );
    }

    #[test]
    fn migration_of_empty_engine_is_noop() {
        let f = fixture(50);
        let report = f.engine.migrate(&f.session).unwrap();
        assert_eq!(report, MigrationReport::default());
    }

    #[test]
    fn partial_migration_preserves_results_and_composes() {
        let f = fixture(600);
        for i in 0..1_200u64 {
            f.engine
                .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(4)))
                .unwrap();
        }
        f.engine
            .apply_update(&f.session, 100, UpdateOp::Delete)
            .unwrap();
        let expect = scan_keys(&f, 0, u64::MAX);

        // Migrate only the first quarter of the key space.
        let r1 = f.engine.migrate_range(&f.session, 0, 300).unwrap();
        assert!(r1.updates_applied > 0);
        assert!(f.engine.run_count() > 0, "partial migration keeps runs");
        assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "after first quarter");

        // Another partial slice, overlapping the first (idempotence via
        // page timestamps).
        f.engine.migrate_range(&f.session, 200, 700).unwrap();
        assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "after overlap");

        // Full migration retires the runs and still agrees.
        f.engine.migrate(&f.session).unwrap();
        assert_eq!(f.engine.run_count(), 0);
        assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "after full");
        assert!(!expect.contains(&100));
    }

    #[test]
    fn partial_migration_is_cheaper_than_full() {
        // The table must span several rewrite chunks for the comparison
        // to be about data volume rather than fixed costs.
        let n = 120_000u64;
        let run = |partial: bool| {
            let f = fixture(n);
            for i in 0..3_000u64 {
                f.engine
                    .apply_update(
                        &f.session,
                        ((i * 79) % (2 * n)) | 1,
                        UpdateOp::Insert(payload(1)),
                    )
                    .unwrap();
            }
            let start = f.session.now();
            if partial {
                f.engine.migrate_range(&f.session, 0, n / 5).unwrap();
            } else {
                f.engine.migrate(&f.session).unwrap();
            }
            f.session.now() - start
        };
        let partial_ns = run(true);
        let full_ns = run(false);
        assert!(
            partial_ns * 3 < full_ns,
            "10% range should cost far less: partial={partial_ns} full={full_ns}"
        );
    }

    #[test]
    fn compact_runs_collapses_duplicates() {
        let f = fixture(200);
        // Hammer a handful of keys so folding has teeth.
        for i in 0..6_000u64 {
            f.engine
                .apply_update(
                    &f.session,
                    (i % 10) * 2,
                    UpdateOp::Replace(payload(i as u32)),
                )
                .unwrap();
        }
        let runs_before = f.engine.run_count();
        assert!(runs_before >= 2, "need several runs");
        let bytes_before = f.engine.cached_bytes();
        let expect = scan_keys(&f, 0, u64::MAX);

        let report = f.engine.compact_runs(&f.session).unwrap();
        assert_eq!(report.inputs, runs_before as u64);
        assert!(
            report.blocks_merged > 0,
            "hammered keys overlap across runs: {report:?}"
        );
        assert_eq!(f.engine.run_count(), 1, "single run remains");
        assert_eq!(f.engine.last_merge_report(), Some(report));
        assert!(
            f.engine.cached_bytes() < bytes_before / 4,
            "duplicates folded: {} -> {}",
            bytes_before,
            f.engine.cached_bytes()
        );
        assert_eq!(expect, scan_keys(&f, 0, u64::MAX));
        // The surviving values are the latest ones.
        let rec = f
            .engine
            .begin_scan(f.session.clone(), 0, 0)
            .unwrap()
            .next()
            .unwrap();
        assert_eq!(schema().get_u32(&rec.payload, 0), 5990);
    }

    #[test]
    fn compact_runs_on_few_runs_is_noop() {
        let f = fixture(50);
        assert_eq!(
            f.engine.compact_runs(&f.session).unwrap(),
            masm_storage::MergeReport::default()
        );
    }

    #[test]
    fn disjoint_compaction_decodes_nothing_and_writes_sequentially() {
        let f = fixture(100);
        // Four key-disjoint bands, each cut into its own run(s): the
        // merge plan must move every block verbatim.
        for band in 0..4u64 {
            for i in 0..400u64 {
                f.engine
                    .apply_update(
                        &f.session,
                        band * 100_000 + i * 2 + 1,
                        UpdateOp::Insert(payload(band as u32)),
                    )
                    .unwrap();
            }
            f.engine.flush_buffer(&f.session).unwrap();
        }
        let runs_before = f.engine.run_count();
        assert!(runs_before >= 4, "need several runs, got {runs_before}");
        let expect = scan_keys(&f, 0, u64::MAX);

        let before = f.engine.ssd().stats();
        let report = f.engine.compact_runs(&f.session).unwrap();
        let delta = f.engine.ssd().stats().delta(&before);

        assert_eq!(report.inputs, runs_before as u64);
        assert_eq!(report.bytes_decoded, 0, "zero-decode: {report:?}");
        assert_eq!(report.blocks_merged, 0);
        assert!(report.blocks_moved > 0);
        assert_eq!(delta.random_writes, 0, "{delta:?}");
        assert_eq!(f.engine.run_count(), 1);
        assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "results unchanged");

        // Metadata accounting follows the run set: one run's footprint
        // remains, and a full migration releases it.
        let st = f.engine.cache_stats();
        assert!(st.meta_bytes > 0, "{st:?}");
        f.engine.migrate(&f.session).unwrap();
        assert_eq!(f.engine.cache_stats().meta_bytes, 0);
        assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "after migration");
    }

    #[test]
    fn overlapping_compaction_decodes_only_the_overlap() {
        let f = fixture(100);
        // Two runs sharing one key band plus disjoint tails.
        for i in 0..400u64 {
            f.engine
                .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(1)))
                .unwrap();
        }
        f.engine.flush_buffer(&f.session).unwrap();
        for i in 300..700u64 {
            f.engine
                .apply_update(&f.session, i * 2 + 1, UpdateOp::Replace(payload(2)))
                .unwrap();
        }
        f.engine.flush_buffer(&f.session).unwrap();
        let expect = scan_keys(&f, 0, u64::MAX);

        let report = f.engine.compact_runs(&f.session).unwrap();
        assert!(report.blocks_merged > 0, "{report:?}");
        assert!(report.blocks_moved > 0, "disjoint tails move: {report:?}");
        // Only ~a quarter of the entries sit in the shared band, so the
        // decoded portion must stay well below the moved portion.
        assert!(
            report.bytes_decoded < report.bytes_moved,
            "only the overlap decodes: {report:?}"
        );
        assert_eq!(expect, scan_keys(&f, 0, u64::MAX));
        // The overlap band carries the later run's values.
        let rec = f
            .engine
            .begin_scan(f.session.clone(), 601, 601)
            .unwrap()
            .next()
            .unwrap();
        assert_eq!(schema().get_u32(&rec.payload, 0), 2);
    }

    #[test]
    fn get_consults_buffer_runs_bloom_and_heap() {
        let f = fixture(100); // even keys 0..200 hold payload(key/2)

        // Heap fallback: no cached updates at all.
        let rec = f.engine.get(&f.session, 40).unwrap().expect("heap hit");
        assert_eq!(schema().get_u32(&rec.payload, 0), 20);

        // Hit in a materialized run.
        f.engine
            .apply_update(&f.session, 43, UpdateOp::Insert(payload(900)))
            .unwrap();
        f.engine
            .apply_update(&f.session, 20, UpdateOp::Delete)
            .unwrap();
        f.engine.flush_buffer(&f.session).unwrap();
        assert!(f.engine.run_count() > 0 && f.engine.buffered_updates() == 0);
        let rec = f.engine.get(&f.session, 43).unwrap().expect("run hit");
        assert_eq!(schema().get_u32(&rec.payload, 0), 900);
        assert!(f.engine.get(&f.session, 20).unwrap().is_none(), "deleted");

        // Hit in the in-memory buffer (overrides the run's version).
        f.engine
            .apply_update(&f.session, 43, UpdateOp::Replace(payload(901)))
            .unwrap();
        assert!(f.engine.buffered_updates() > 0);
        let rec = f.engine.get(&f.session, 43).unwrap().expect("buffer hit");
        assert_eq!(schema().get_u32(&rec.payload, 0), 901);

        // Bloom negative: a key in no run costs zero SSD reads.
        let ssd_reads = f.engine.ssd().stats().read_ops;
        let miss = f.engine.get(&f.session, 45).unwrap();
        assert!(miss.is_none());
        assert_eq!(
            f.engine.ssd().stats().read_ops,
            ssd_reads,
            "bloom rejected the run without I/O"
        );

        // Agreement with the merged scan operator across all cases.
        for key in [20u64, 40, 43, 45, 44] {
            let via_scan: Vec<Record> = f
                .engine
                .begin_scan(f.session.clone(), key, key)
                .unwrap()
                .collect();
            let via_get = f.engine.get(&f.session, key).unwrap();
            assert_eq!(via_scan.first(), via_get.as_ref(), "key {key}");
        }
    }
}
