//! The MaSM engine: the storage-manager-level facade of §3.
//!
//! One engine manages one table: its clustered heap on the disk device,
//! its SSD update cache (in-memory buffer + materialized sorted runs),
//! and its redo log, whose lock draws the timestamps that serialize
//! individual queries and updates. It exposes exactly the surface the
//! paper argues a DBMS needs ("MaSM can be implemented in the storage
//! manager … it does not require modification to the buffer manager,
//! query processor or query optimizer"):
//!
//! * [`MasmEngine::apply_update`] — ingest a well-formed update,
//! * [`MasmEngine::begin_scan`] — a table range scan that transparently
//!   merges cached updates (drop-in for `Table_range_scan`),
//! * [`MasmEngine::migrate`] — in-place migration of cached updates,
//! * [`MasmEngine::recover`] — crash recovery from the redo log.
//!
//! # Log first, then publish
//!
//! One order holds every timestamp: the redo log's lock (the *log
//! order*, `Wal::order`), whose counter (`LogOrder::draw`) is the only
//! source of timestamps. An update draws its timestamp, writes its
//! frame and is pushed into the buffer inside one hold of it; a query,
//! a migration or a transaction commit draws its timestamp inside a
//! hold of its own. So a reader never sees an update that is not logged
//! (or whose append failed), and no timestamp is drawn above an update
//! that is still on its way into the buffer — a migration cannot stamp
//! a page above it.
//! The lock order is log order, then state; a flush or a merge logs its
//! run, so it runs with neither held.
//!
//! # The maintenance protocol
//!
//! The engine state sits behind a [`TrackedMutex`] that is **never**
//! held across device I/O (the storage layer debug-asserts this). A
//! query *pins*: one short lock hold registers its timestamp and
//! clones the immutable `Arc`s it will read (the run set — one shared
//! slice, one refcount — the sealed batches, the matching buffer
//! entries); dropping the query unpins. Everything
//! that changes the run set — flush, compaction, migration — follows
//! one path, written once in `state`:
//!
//! 1. **Claim**, under the lock. A flush's claim comes from its seal:
//!    the caller that seals the buffer into a batch is handed the
//!    batch's claim with its updates, and it alone flushes the batch.
//!    A merge claims the merge slot: one merge at a time, none while a
//!    migration is in flight. A migration claims the migration slot:
//!    one at a time. A busy claim means somebody else is doing the
//!    work — the caller returns, nothing queues.
//! 2. **Work**, unlocked, against the `Arc`s the claim handed out:
//!    build and write a run, rewrite heap chunks, append to the WAL.
//! 3. **Install** a built run in place of the sealed batch or the input
//!    runs it was made from, or **retire** the runs a migration has
//!    applied: one critical section that bumps the epoch, so a query
//!    snapshot holds exactly one of {batch, run} or {inputs, output}.
//!    Withdrawn runs leave the visible set; their SSD extents do not.
//! 4. **Drop the claim** — success, error and early return alike. The
//!    drop clears the claim (a batch whose run was never installed
//!    goes back into the buffer: the log holds its updates, queries
//!    keep seeing them, the next flush retries them), *rewinds* the
//!    run allocator if the engine has quiesced (no pinned query, no
//!    sealed batch, no claim: only then can no snapshot still be
//!    reading a retired extent — nothing else moves the allocator
//!    back), and wakes whoever waits on the state: a migration waiting
//!    for older queries, a drain waiting for another caller's batch.
//!
//! Every job runs on the thread of the caller that needs it: ingest
//! and scan setup flush a full buffer, scan setup merges runs past the
//! query-page budget, and [`MasmEngine::migrate`] is called by whoever
//! decides it is due. A full buffer is *sealed* into an immutable batch
//! (visible to queries) before its flush, so another caller's scan that
//! meets it mid-flush still reads it; and ingest flushes it before the
//! update that found it full exists, so a failed flush leaves that
//! update unapplied. Single-threaded runs are deterministic.
//!
//! # Migration
//!
//! Migration is one function over a key span: [`MasmEngine::migrate`]
//! passes the whole keyspace, [`MasmEngine::migrate_range`] a
//! sub-range. It rewrites the heap pages overlapping the span, applies
//! every cached update whose key those pages own, and stamps each
//! rewritten chunk with the migration timestamp. Queries rely on §3.2's
//! invariant — a page stamped *t* already contains every cached update
//! ≤ *t* for the keys it covers — to skip such updates. Runs are
//! retired, and the migration logged, only when the span covers every
//! key.
//!
//! **A chunk is committed only after its run scans reported no
//! error.** A run scan that fails (a device error, a block that fails
//! its checksum, an entry that does not decode) ends its stream like an
//! exhausted one, so a chunk joined against it would be stamped while
//! updates it owns are still missing — a wrong answer from then on.
//! The scans of one migration share one error slot; the rewrite checks
//! it after joining a chunk and before committing it. The chunks
//! committed before the failure stand (each holds every update its
//! stamp claims), the failing one is left as it was, the claim drops
//! and a retry picks up from the page timestamps. A compaction checks
//! its slot the same way before it hands back the run it built, and a
//! merged scan after every join step, before it hands out the step's
//! records: a query cut short returns a prefix of the right answer and
//! says why ([`MergeScan::error`]).
//!
//! A chunk moves as bytes: one buffer read, one buffer written, and a
//! record no update touches is copied from one to the other encoded as
//! it is (`merge::join_chunk`, [`masm_pagestore::PageChunk`]). The
//! updates reach the pages as bytes too: the run scans' loser-tree
//! merge (`merge::RunMerge`) lends each entry's encoded operation, and
//! the join packs an insert's payload or patches a copied record in
//! place; only two visible versions of one key are decoded, to fold.
//!
//! Invariant: **a page is resolved and read under one hold of the heap
//! lock.** Migrations wait only for queries *older* than their
//! timestamp; later ones run beside the rewrite, and every chunk it
//! commits splices the page map — the logical index of every later
//! page shifts, and the physical slots of the replaced pages go back
//! to the allocator. So `key → logical page → physical offset → bytes`
//! is one step: `get` reads its base record through
//! `TableHeap::with_page_of` and a scan issues each batch under the
//! heap's read lock, locating it by key. Resolve in one hold and read
//! in another, and a commit in between hands the lookup a neighbour's
//! page — a `None` for a record that exists — or an index past the
//! end of the map. A `get` pins itself with a guard
//! (`state::LookupPin`), so no way out of it, a panic included, leaves
//! a query registered for a migration to wait on forever.
//!
//! Invariant: **one rewriter per heap.** A `HeapRewriter` addresses
//! pages by logical index, which another rewriter's splice shifts. The
//! migration claim already admits one migration at a time, and the heap
//! enforces it as well (`TableHeap::rewriter_range` holds the heap's
//! rewrite lock until the rewriter is finished or dropped).
//!
//! Files: `state` (the protocol; the only code that touches claims
//! and pins), `ingest`, `read`, `maintain` (flush, merge and
//! migration), `recover` (`open`: the one path that builds an engine —
//! fresh or recovered).

mod ingest;
mod maintain;
mod read;
mod recover;
mod state;
#[cfg(test)]
mod tests;

use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

use masm_blockrun::BlockCache;
use masm_pagestore::{Key, Schema, TableHeap};
use masm_storage::{
    CacheStatsSnapshot, CompressionReport, MergeReport, Ns, SessionHandle, SimDevice, TrackedMutex,
};
use masm_telemetry::{
    current_tid, BufferStats, EngineStats, Histogram, OpLatencies, RunSetStats, SpanGuard, Tracer,
    TrackId,
};

use crate::config::MasmConfig;
use crate::run::SortedRun;
use crate::ts::Timestamp;
use crate::wal::Wal;

pub use read::MergeScan;
use state::EngineState;

/// The engine's six per-operation latency histograms, all in
/// **virtual-ns**. `block_fetch` is shared with every query run scan,
/// hence its `Arc`.
#[derive(Default)]
struct EngineMetrics {
    ingest: Histogram,
    get: Histogram,
    scan_next: Histogram,
    flush: Histogram,
    migrate: Histogram,
    block_fetch: Arc<Histogram>,
}

impl EngineMetrics {
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
    /// The engine state lock. [`TrackedMutex`]: holding it across
    /// device I/O is a debug-mode panic (lock-discipline audit).
    state: TrackedMutex<EngineState>,
    /// Rung whenever the state changes in a way someone may wait for.
    quiesce: Condvar,
    /// Redo log. Its lock is also the log order, and it holds the
    /// timestamp counter: an update's timestamp is drawn, logged and
    /// published under one hold of it, and every other timestamp is
    /// drawn under a hold. Taken before `state`, never while holding
    /// it.
    wal: Wal,
    /// Last commit timestamp per key, for first-committer-wins snapshot
    /// isolation (§3.6). A production system would truncate this by the
    /// oldest active transaction; we keep it simple.
    commit_index: Mutex<std::collections::HashMap<Key, Timestamp>>,
    /// Cumulative totals across every planned merge this engine ran.
    merge_totals: Mutex<MergeReport>,
    /// Cumulative codec accounting across every run this engine built
    /// (or recovered): raw vs stored data-block bytes, blocks per codec.
    compression_totals: Mutex<CompressionReport>,
    /// Per-operation latency histograms behind [`MasmEngine::stats`].
    metrics: EngineMetrics,
    /// Optional `masm-trace` flight recorder
    /// ([`MasmEngine::install_tracer`]). When absent or disabled every
    /// instrumentation site costs one load.
    tracer: OnceLock<Arc<Tracer>>,
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
    /// Install the `masm-trace` flight recorder. First installation
    /// wins; the engine emits spans and instants only while a tracer
    /// is installed *and* enabled — otherwise every
    /// instrumentation site costs one relaxed load.
    pub fn install_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// The installed tracer while recording is on. `None` is the fast
    /// path: one `OnceLock` load plus one relaxed atomic load.
    #[inline]
    pub(crate) fn trace(&self) -> Option<&Arc<Tracer>> {
        self.tracer.get().filter(|t| t.enabled())
    }

    /// The installed tracer regardless of the enabled flag (scan
    /// streams hold it for the lifetime of the query and re-check the
    /// flag per event).
    pub(crate) fn tracer_arc(&self) -> Option<Arc<Tracer>> {
        self.tracer.get().cloned()
    }

    /// This engine's trace track: the calling thread's lane.
    pub(crate) fn track(&self) -> TrackId {
        TrackId { tid: current_tid() }
    }

    /// A drop-guard span on this engine's track, timed on `session`'s
    /// clock, while recording is on.
    fn trace_span(
        &self,
        name: &'static str,
        session: &SessionHandle,
    ) -> Option<SpanGuard<'_, impl Fn() -> u64>> {
        self.trace().map(|t| {
            let session = session.clone();
            t.span(name, self.track(), move || session.now())
        })
    }

    /// An instant on this engine's track, while recording is on.
    pub(crate) fn trace_instant(
        &self,
        name: &'static str,
        at: Ns,
        arg_name: &'static str,
        arg: u64,
    ) {
        if let Some(t) = self.trace() {
            t.instant(name, self.track(), at, arg_name, arg);
        }
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

    /// Hit/miss counters of the block cache, including the split
    /// between evictable data-block bytes and pinned run-metadata bytes
    /// (zone maps + bloom filters).
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    /// Cumulative merge totals across the engine's lifetime.
    pub fn merge_stats(&self) -> MergeReport {
        *self.merge_totals.lock()
    }

    fn record_merge(&self, report: MergeReport) {
        let mut totals = self.merge_totals.lock();
        *totals = totals.merge(&report);
    }

    /// Fold a newly built (or recovered) run's codec accounting into
    /// the engine totals.
    fn record_compression(&self, run: &SortedRun) {
        let mut totals = self.compression_totals.lock();
        *totals = totals.merge(&run.meta.compression());
    }

    /// A fresh read timestamp, drawn under the log order: every update
    /// at or below it is already in the buffer or a run.
    pub fn read_ts(&self) -> Timestamp {
        self.wal.order().draw()
    }

    /// Bytes of cached updates on the SSD (live runs).
    pub fn cached_bytes(&self) -> u64 {
        self.state.lock().runs.live_bytes()
    }

    /// Number of live materialized runs.
    pub fn run_count(&self) -> usize {
        self.state.lock().runs.len()
    }

    /// Whether cached updates have reached the migration threshold.
    pub fn needs_migration(&self) -> bool {
        let st = self.state.lock();
        st.runs.needs_migration(&self.cfg)
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
        let (ingested_updates, ingested_bytes, buffer, runs) = {
            let st = self.state.lock();
            (
                st.ingested_updates,
                st.ingested_bytes,
                BufferStats {
                    updates: st.buffer.len() as u64,
                    bytes: st.buffer.bytes() as u64,
                    capacity_bytes: st.buffer.capacity() as u64,
                },
                RunSetStats {
                    count: st.runs.len() as u64,
                    cached_bytes: st.runs.live_bytes(),
                    ssd_capacity_bytes: self.cfg.ssd_capacity,
                    epoch_lag: st.epoch_lag(),
                },
            )
        };
        let wal = self.wal.device().stats();
        EngineStats {
            at_ns: self.ssd.clock().now(),
            ingested_updates,
            ingested_bytes,
            buffer,
            runs,
            cache: self.cache.stats(),
            merge: *self.merge_totals.lock(),
            compression: *self.compression_totals.lock(),
            ssd: self.ssd.stats(),
            ssd_wear: self.ssd.wear_stats(),
            wal,
            ops: self.metrics.snapshot(),
        }
    }
}
