//! Key-range sharding: a [`ShardRouter`] partitions the keyspace into
//! contiguous ranges and a [`ShardedEngine`] runs one [`MasmEngine`]
//! per range over its own SSD region, WAL device, and memory budget.
//!
//! Why shard a MaSM engine? The single-engine design serializes three
//! things on one flash device and one state lock: run writes (flushes
//! and merges), migration traffic, and the buffer seal path. Splitting
//! the keyspace gives each shard its own device queue and its own lock,
//! so N ingest lanes hitting N shards absorb updates in parallel while
//! *each shard individually* preserves the paper's design goals — in
//! particular design goal 2: every shard's SSD sees only sequential
//! writes (`random_writes == 0` per shard, asserted by tests and the
//! `fig_sharded_ingest` figure).
//!
//! Consistency across shards comes from two shared pieces:
//!
//! * **One timestamp oracle.** Every shard draws commit timestamps from
//!   the same [`TimestampOracle`] (cloned handles share the counter), so
//!   there is a single global commit order even though shards ingest
//!   concurrently.
//! * **One query timestamp per cross-shard scan.** A
//!   [`ShardedEngine::scan`] draws one timestamp and opens a pinned
//!   snapshot scan *in every overlapping shard* at that timestamp before
//!   returning — one consistent cut of the whole table. Because shard
//!   ranges are contiguous and disjoint, the k-way merge of per-shard
//!   iterators degenerates to concatenation in shard order.
//!
//! Maintenance is shared, not duplicated: all shards feed one
//! `WorkerPool` with shard-tagged jobs. The pool staggers migrations
//! (one shard migrates at a time — the shared heap admits one rewriter
//! anyway) so the scan-latency spike of an in-place migration is never
//! multiplied by the shard count.
//!
//! Construction is shared too: a `ShardedEngine` is what
//! `engine::open` returns for N redo logs, plus the [`ShardManifest`]
//! copies that let recovery check it is given the same deployment.

use std::collections::VecDeque;
use std::sync::Arc;

use masm_pagestore::{Key, Record, Schema, TableHeap};
use masm_storage::{SessionHandle, SimDevice};
use masm_telemetry::{EngineStats, Tracer};

use crate::config::MasmConfig;
use crate::engine::{
    open, MasmEngine, MergeScan, MigrationReport, ParsedWal, RecoveryReport, ShardLog,
};
use crate::error::{MasmError, MasmResult};
use crate::manifest::ShardManifest;
use crate::ts::{Timestamp, TimestampOracle};
use crate::update::UpdateOp;

/// Partitions `u64` keyspace into `splits.len() + 1` contiguous ranges.
///
/// `splits` are the *lower bounds of every shard but the first*, kept
/// strictly ascending and non-zero: shard `i` owns `[splits[i-1],
/// splits[i])` (first shard starts at 0, last ends at `u64::MAX`
/// inclusive). Routing is total — every `u64` maps to exactly one
/// shard, including the boundary keys themselves. The default router
/// has no splits: one shard owning the whole keyspace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardRouter {
    splits: Vec<Key>,
}

impl ShardRouter {
    /// Evenly spaced split points over the full `u64` keyspace.
    #[must_use]
    pub fn uniform(shards: usize) -> Self {
        let n = shards.max(1) as u64;
        let stride = u64::MAX / n;
        ShardRouter {
            splits: (1..n).map(|i| i * stride).collect(),
        }
    }

    /// Learn split points from a key sample: quantile boundaries over
    /// the sorted, deduplicated sample, nudged upward where duplicates
    /// collapse quantiles so the splits stay strictly ascending. An
    /// empty sample falls back to [`ShardRouter::uniform`].
    #[must_use]
    pub fn from_sample(shards: usize, sample: &[Key]) -> Self {
        if sample.is_empty() || shards <= 1 {
            return Self::uniform(shards);
        }
        let mut keys = sample.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let mut splits = Vec::with_capacity(shards - 1);
        let mut last: Key = 0;
        for i in 1..shards {
            let candidate = keys[i * keys.len() / shards];
            let split = candidate.max(last.saturating_add(1));
            splits.push(split);
            last = split;
        }
        ShardRouter { splits }
    }

    /// Explicit split points; must be strictly ascending and non-zero.
    pub fn from_splits(splits: Vec<Key>) -> MasmResult<Self> {
        if splits.first() == Some(&0) {
            return Err(MasmError::Config(
                "split point 0 leaves the first shard empty".into(),
            ));
        }
        if splits.windows(2).any(|w| w[0] >= w[1]) {
            return Err(MasmError::Config(
                "split points must be strictly ascending".into(),
            ));
        }
        Ok(ShardRouter { splits })
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.splits.len() + 1
    }

    /// The shard owning `key` (total over all of `u64`).
    #[must_use]
    pub fn route(&self, key: Key) -> usize {
        self.splits.partition_point(|&s| s <= key)
    }

    /// Shard `i`'s inclusive key range `[lo, hi]`.
    #[must_use]
    pub fn shard_range(&self, shard: usize) -> (Key, Key) {
        let lo = if shard == 0 {
            0
        } else {
            self.splits[shard - 1]
        };
        let hi = self.splits.get(shard).map_or(u64::MAX, |&next| next - 1);
        (lo, hi)
    }

    /// The split points (lower bounds of shards `1..`).
    #[must_use]
    pub fn split_points(&self) -> &[Key] {
        &self.splits
    }
}

/// Aggregated statistics of a sharded engine: one summed snapshot, the
/// per-shard rows behind it, and the load-balance gauge.
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Fold-merge of every shard's [`EngineStats`] (counters summed,
    /// pool-global worker gauges maxed — see [`EngineStats::merge`]).
    pub total: EngineStats,
    /// Each shard's own snapshot, indexed by shard id.
    pub per_shard: Vec<EngineStats>,
    /// Max over mean of per-shard ingested bytes (1.0 = perfectly
    /// balanced; 0.0 before any ingest).
    pub shard_imbalance: f64,
}

/// Aggregated outcome of [`ShardedEngine::recover`].
#[derive(Debug, Clone, Default)]
pub struct ShardedRecoveryReport {
    /// Per-shard recovery reports, indexed by shard id.
    pub per_shard: Vec<RecoveryReport>,
    /// Interrupted migrations re-driven to completion.
    pub migrations_redriven: usize,
}

impl ShardedRecoveryReport {
    /// Updates restored into in-memory buffers, across all shards.
    #[must_use]
    pub fn updates_recovered(&self) -> u64 {
        self.per_shard.iter().map(|r| r.updates_recovered).sum()
    }

    /// Materialized runs re-registered, across all shards.
    #[must_use]
    pub fn runs_recovered(&self) -> usize {
        self.per_shard.iter().map(|r| r.runs_recovered).sum()
    }

    /// WAL records replayed, across all shards.
    #[must_use]
    pub fn wal_records_replayed(&self) -> u64 {
        self.per_shard.iter().map(|r| r.wal_records_replayed).sum()
    }

    /// WAL bytes truncated as torn tails, across all shards.
    #[must_use]
    pub fn wal_torn_bytes(&self) -> u64 {
        self.per_shard.iter().map(|r| r.wal_torn_bytes).sum()
    }
}

/// N key-range shards behind one router, one timestamp domain, and one
/// background worker pool.
pub struct ShardedEngine {
    router: ShardRouter,
    shards: Vec<Arc<MasmEngine>>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("splits", &self.router.split_points())
            .finish()
    }
}

impl ShardedEngine {
    /// Build one shard engine per key range of `cfg.sharding` over a
    /// shared heap. `ssds` and `wals` supply one device per shard (each
    /// shard's run region and redo log are its own device queue — that
    /// independence is where the ingest scaling comes from). Budgets in
    /// `cfg` are totals and are divided per [`MasmConfig::shard_config`].
    pub fn new(
        heap: Arc<TableHeap>,
        ssds: Vec<SimDevice>,
        wals: Vec<SimDevice>,
        schema: Schema,
        cfg: MasmConfig,
    ) -> MasmResult<Arc<Self>> {
        cfg.validate()?;
        let router = ShardRouter::from_splits(cfg.sharding.splits.clone())?;
        let logs = Self::shard_logs(&cfg, ssds, wals, |_| Ok(ParsedWal::default()))?;
        let (shards, _) = open(heap, schema, &router, None, logs)?;
        let engine = ShardedEngine { router, shards };
        // Durably describe the deployment before any data moves: one
        // manifest copy in every shard's WAL (each naming its own shard
        // id), so recovery can validate shard count, split keys, device
        // order, and configuration compatibility from the logs alone.
        let fingerprint = cfg.fingerprint();
        for (shard_id, e) in engine.shards.iter().enumerate() {
            let session = SessionHandle::fresh(e.ssd().clock().clone());
            e.log_manifest(
                &session,
                &ShardManifest {
                    shards: engine.shards.len() as u32,
                    shard_id: shard_id as u32,
                    split_keys: engine.router.split_points().to_vec(),
                    config_fingerprint: fingerprint,
                },
            )?;
        }
        Ok(Arc::new(engine))
    }

    /// Pair each shard's devices with its slice of `cfg` and its redo
    /// log (`log` parses it, or declares it empty).
    fn shard_logs(
        cfg: &MasmConfig,
        ssds: Vec<SimDevice>,
        wals: Vec<SimDevice>,
        mut log: impl FnMut(&SimDevice) -> MasmResult<ParsedWal>,
    ) -> MasmResult<Vec<ShardLog>> {
        let n = cfg.sharding.splits.len() + 1;
        if ssds.len() != n || wals.len() != n {
            return Err(MasmError::Config(format!(
                "{n} shards need {n} SSD and {n} WAL devices (got {} / {})",
                ssds.len(),
                wals.len()
            )));
        }
        let devices = ssds.into_iter().zip(wals).enumerate();
        devices
            .map(|(shard_id, (ssd, wal))| {
                Ok(ShardLog {
                    cfg: cfg.shard_config(shard_id)?,
                    log: log(&wal)?,
                    ssd,
                    wal,
                })
            })
            .collect()
    }

    /// Rebuild a sharded deployment after a crash: [`MasmEngine::recover`]
    /// over N redo logs instead of one (torn tails truncated, heap
    /// loads and migration splices of *all* logs merged into one
    /// globally ordered replay, one oracle resumed past the maximum
    /// durable timestamp of any shard, interrupted migrations re-driven
    /// one after another), plus the one step only N > 1 needs: every
    /// log must carry the [`ShardManifest`] written at
    /// [`ShardedEngine::new`], and shard count, split keys, per-device
    /// shard ids and the configuration fingerprint must all agree — a
    /// swapped, missing, or stale device set is rejected before any run
    /// bytes are trusted. The router comes from
    /// the manifests' split keys, the durable record of the topology.
    /// An optional flight recorder is installed into every shard engine
    /// before replay (recovery spans and instants land on each shard's
    /// own trace track).
    pub fn recover(
        heap: Arc<TableHeap>,
        ssds: Vec<SimDevice>,
        wals: Vec<SimDevice>,
        schema: Schema,
        cfg: MasmConfig,
        tracer: Option<&Arc<Tracer>>,
    ) -> MasmResult<(Arc<Self>, ShardedRecoveryReport)> {
        cfg.validate()?;
        let logs = Self::shard_logs(&cfg, ssds, wals, |wal| {
            MasmEngine::parse_wal(&SessionHandle::fresh(wal.clock().clone()), wal)
        })?;
        let manifests: Vec<&ShardManifest> = logs
            .iter()
            .map(|shard| shard.log.manifest.as_ref())
            .map(|m| m.ok_or(MasmError::Corrupt("shard WAL has no manifest")))
            .collect::<MasmResult<_>>()?;
        let fingerprint = cfg.fingerprint();
        if manifests
            .iter()
            .any(|m| m.config_fingerprint != fingerprint)
        {
            return Err(MasmError::Config(
                "config fingerprint does not match the manifest: a layout-shaping \
                 setting changed since this deployment was created"
                    .into(),
            ));
        }
        let router = ShardRouter::from_splits(manifests[0].split_keys.clone())?;
        let (shards, per_shard) = open(heap, schema, &router, tracer, logs)?;
        let engine = ShardedEngine { router, shards };
        let report = ShardedRecoveryReport {
            migrations_redriven: per_shard.iter().filter(|r| r.redid_migration).count(),
            per_shard,
        };
        Ok((Arc::new(engine), report))
    }

    /// The router.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shard engines, indexed by shard id.
    #[must_use]
    pub fn shards(&self) -> &[Arc<MasmEngine>] {
        &self.shards
    }

    /// The shared timestamp oracle (every shard holds a clone of it).
    #[must_use]
    pub fn oracle(&self) -> &TimestampOracle {
        self.shards[0].oracle()
    }

    /// Apply one update, routed by key; returns its commit timestamp.
    pub fn put(&self, session: &SessionHandle, key: Key, op: UpdateOp) -> MasmResult<Timestamp> {
        self.shards[self.router.route(key)].apply_update(session, key, op)
    }

    /// Point lookup, routed by key.
    pub fn get(&self, session: &SessionHandle, key: Key) -> MasmResult<Option<Record>> {
        self.shards[self.router.route(key)].get(session, key)
    }

    /// Bulk-load the shared table heap (records sorted by key). The
    /// load is logged to *every* shard's WAL under one shared
    /// heap-event sequence number: recovery can rebuild the heap from
    /// whichever logs survive, and the multi-log replay deduplicates
    /// the broadcast by its sequence number so the heap is restored
    /// exactly once.
    pub fn load_table(
        &self,
        session: &SessionHandle,
        records: impl IntoIterator<Item = Record>,
        fill: f64,
    ) -> MasmResult<()> {
        self.shards[0].heap().bulk_load(session, records, fill)?;
        let seq = self.oracle().next();
        for e in &self.shards {
            e.log_heap_loaded(session, seq)?;
        }
        Ok(())
    }

    /// Cross-shard range scan of `[begin, end]` at a fresh query
    /// timestamp: one consistent cut over every shard.
    pub fn scan(&self, begin: Key, end: Key) -> MasmResult<ShardedScan> {
        self.scan_at(begin, end, None)
    }

    /// Cross-shard range scan at an explicit snapshot timestamp.
    ///
    /// Every overlapping shard's snapshot is *pinned before this method
    /// returns* (each per-shard [`MergeScan`] registers itself as an
    /// active query at `ts`), so concurrent merges and migrations in
    /// any shard cannot reclaim state the scan still needs — the cut
    /// stays consistent even though later shards are iterated seconds
    /// of virtual time after the first.
    ///
    /// Pinning is two-phase: every overlapping shard is *reserved*
    /// before the timestamp is drawn, and each reservation is released
    /// only once that shard's pin is registered. Between the draw and a
    /// shard's pin the timestamp is invisible to that shard's
    /// active-query guards; without the reservation a concurrent seal
    /// or compaction could fold duplicate versions across it (the scan
    /// would then see an *older* value than a previous scan did), and a
    /// migration could stamp heap pages with a timestamp above it.
    pub fn scan_at(
        &self,
        begin: Key,
        end: Key,
        as_of: Option<Timestamp>,
    ) -> MasmResult<ShardedScan> {
        let overlapping: Vec<usize> = (0..self.shards.len())
            .filter(|&shard| {
                let (lo, hi) = self.router.shard_range(shard);
                hi >= begin && lo <= end
            })
            .collect();
        for &shard in &overlapping {
            let engine = &self.shards[shard];
            engine.reserve_scan();
            engine.trace_instant(
                "scan.reserve",
                engine.ssd().clock().now(),
                "shard",
                shard as u64,
            );
        }
        let ts = as_of.unwrap_or_else(|| self.oracle().next());
        let mut parts = VecDeque::new();
        let mut err = None;
        for &shard in &overlapping {
            let engine = &self.shards[shard];
            if err.is_none() {
                let (lo, hi) = self.router.shard_range(shard);
                let session = SessionHandle::fresh(engine.ssd().clock().clone());
                // The per-shard session is consumed by the scan, so the
                // pin is timed on the shard's global device clock.
                let clock = engine.ssd().clock();
                let mut span = engine
                    .trace()
                    .map(|t| t.span("scan.pin", engine.track(), || clock.now()));
                if let Some(span) = &mut span {
                    span.set_arg("ts", ts);
                }
                let (begin, end) = (lo.max(begin), hi.min(end));
                match engine.begin_scan_at(session, begin, end, Some(ts), Vec::new()) {
                    Ok(scan) => parts.push_back(scan),
                    Err(e) => err = Some(e),
                }
            }
            // Pinned (or abandoned): the per-timestamp guards take over.
            engine.release_scan_reservation();
        }
        if let Some(e) = err {
            return Err(e);
        }
        Ok(ShardedScan {
            ts,
            current: None,
            rest: parts,
        })
    }

    /// Whether any shard's cached updates warrant migration.
    #[must_use]
    pub fn needs_migration(&self) -> bool {
        self.shards.iter().any(|e| e.needs_migration())
    }

    /// Flush every shard's in-memory buffer to its SSD region.
    pub fn flush_all(&self, session: &SessionHandle) -> MasmResult<()> {
        for e in &self.shards {
            e.flush_buffer(session)?;
        }
        Ok(())
    }

    /// Migrate every shard that needs it, one after another (the
    /// inline counterpart of the pool's staggering: never more than one
    /// migration's worth of heap traffic at a time).
    pub fn migrate_all(&self, session: &SessionHandle) -> MasmResult<Vec<MigrationReport>> {
        let mut reports = Vec::new();
        for e in &self.shards {
            if e.needs_migration() {
                reports.push(e.migrate(session)?);
            }
        }
        Ok(reports)
    }

    /// Aggregate statistics: per-shard snapshots, their fold-merge, and
    /// the ingest balance.
    #[must_use]
    pub fn stats(&self) -> ShardedStats {
        let per_shard: Vec<EngineStats> = self.shards.iter().map(|e| e.stats()).collect();
        let total = per_shard[1..]
            .iter()
            .fold(per_shard[0], |acc, s| acc.merge(s));
        let max = per_shard
            .iter()
            .map(|s| s.ingested_bytes)
            .max()
            .unwrap_or(0) as f64;
        let mean = total.ingested_bytes as f64 / per_shard.len() as f64;
        let shard_imbalance = if mean > 0.0 { max / mean } else { 0.0 };
        ShardedStats {
            total,
            per_shard,
            shard_imbalance,
        }
    }

    /// Install one shared flight recorder across every shard engine
    /// (each shard emits on its own process track, `pid == shard_id`).
    /// Call once, before the workload starts.
    pub fn install_tracer(&self, tracer: &Arc<Tracer>) {
        for e in &self.shards {
            e.install_tracer(Arc::clone(tracer));
        }
    }

    /// Drain and join the shared worker pool (no-op in inline mode;
    /// idempotent): every shard holds a clone of the one handle.
    pub fn shutdown(&self) {
        self.shards[0].shutdown();
    }
}

/// A cross-shard snapshot scan: the concatenation of per-shard
/// [`MergeScan`]s in shard (= key) order, all pinned at one query
/// timestamp. Dropping it (or exhausting it) releases every pin.
pub struct ShardedScan {
    ts: Timestamp,
    current: Option<MergeScan>,
    rest: VecDeque<MergeScan>,
}

impl std::fmt::Debug for ShardedScan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedScan")
            .field("ts", &self.ts)
            .field("pending_shards", &self.rest.len())
            .finish()
    }
}

impl ShardedScan {
    /// The single query timestamp every shard was pinned at.
    #[must_use]
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// The read error — heap or run — that ended the scan early, if one
    /// did (see [`MergeScan::error`]); the shards after the failed one
    /// are not read.
    #[must_use]
    pub fn error(&self) -> Option<&MasmError> {
        self.current.as_ref()?.error()
    }
}

impl Iterator for ShardedScan {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        loop {
            if let Some(cur) = &mut self.current {
                if let Some(record) = cur.next() {
                    return Some(record);
                }
                if cur.error().is_some() {
                    // Keep the failed part for `error()`; the other
                    // shards' pins have nothing left to protect.
                    self.rest.clear();
                    return None;
                }
                // Exhausted: drop it now so its shard's pin releases
                // before we start the next shard.
                self.current = None;
            }
            self.current = Some(self.rest.pop_front()?);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_router_is_total_and_ordered() {
        let r = ShardRouter::uniform(4);
        assert_eq!(r.shards(), 4);
        assert_eq!(r.route(0), 0);
        assert_eq!(r.route(u64::MAX), 3);
        // Boundary keys belong to the shard they open.
        for (i, &s) in r.split_points().iter().enumerate() {
            assert_eq!(r.route(s), i + 1);
            assert_eq!(r.route(s - 1), i);
        }
        // Ranges tile the keyspace exactly.
        for i in 0..4 {
            let (lo, hi) = r.shard_range(i);
            assert!(lo <= hi);
            assert_eq!(r.route(lo), i);
            assert_eq!(r.route(hi), i);
        }
        assert_eq!(r.shard_range(0).0, 0);
        assert_eq!(r.shard_range(3).1, u64::MAX);
    }

    #[test]
    fn single_shard_router_routes_everything_to_zero() {
        let r = ShardRouter::uniform(1);
        assert_eq!(r.shards(), 1);
        assert_eq!(r.route(0), 0);
        assert_eq!(r.route(u64::MAX), 0);
        assert_eq!(r.shard_range(0), (0, u64::MAX));
    }

    #[test]
    fn sampled_router_balances_a_skewed_sample() {
        // 3/4 of the sample mass below 1000, the rest spread high.
        let mut sample: Vec<Key> = (0..750).map(|i| i % 1000).collect();
        sample.extend((0..250).map(|i| 1_000_000 + i * 1000));
        let r = ShardRouter::from_sample(4, &sample);
        assert_eq!(r.shards(), 4);
        // Splits land inside the dense region, not at uniform stride.
        assert!(r.split_points()[0] < 1000, "{:?}", r.split_points());
        let counts = sample.iter().fold(vec![0usize; 4], |mut c, &k| {
            c[r.route(k)] += 1;
            c
        });
        let max = *counts.iter().max().unwrap();
        assert!(max <= sample.len() / 2, "skewed routing: {counts:?}");
    }

    #[test]
    fn degenerate_sample_still_yields_strict_splits() {
        // All-equal sample: quantiles collapse; router must still
        // produce strictly ascending splits (empty shards are fine).
        let sample = vec![7u64; 100];
        let r = ShardRouter::from_sample(4, &sample);
        assert_eq!(r.shards(), 4);
        let s = r.split_points();
        assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
        assert_eq!(r.route(6), 0);
    }

    #[test]
    fn explicit_splits_are_validated() {
        assert!(ShardRouter::from_splits(vec![0]).is_err());
        assert!(ShardRouter::from_splits(vec![10, 10]).is_err());
        assert!(ShardRouter::from_splits(vec![20, 10]).is_err());
        let r = ShardRouter::from_splits(vec![10, 20]).unwrap();
        assert_eq!(r.shards(), 3);
        assert_eq!(r.route(9), 0);
        assert_eq!(r.route(10), 1);
        assert_eq!(r.route(20), 2);
    }
}
