//! The engine's shared state and the protocol over it (see the module
//! doc of [`super`]): query pins, the fold guard, sealing (which hands
//! out a flush's claim), claims, install and retire. The fields that
//! encode the protocol are private to this file — everything else in
//! the engine reaches them through the functions below.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use masm_blockrun::BlockCache;
use masm_pagestore::Key;
use masm_storage::SessionHandle;

use super::MasmEngine;
use crate::algo::RunSet;
use crate::error::MasmResult;
use crate::membuf::UpdateBuffer;
use crate::merge::fold_duplicates;
use crate::run::SortedRun;
use crate::ts::Timestamp;
use crate::update::UpdateRecord;

/// Bookkeeping for the active queries (scans or point lookups) at one
/// timestamp: two scans of one transaction share it.
#[derive(Debug, Clone, Copy)]
struct QueryPin {
    /// Queries pinned at the timestamp.
    queries: u64,
    /// Query pages they pinned (one per open run scan).
    pages: u64,
    /// The engine epoch the oldest of their snapshots was taken at.
    epoch: u64,
}

/// A full in-memory buffer, sealed into an immutable batch awaiting its
/// flush by the caller that sealed it. Sealed batches stay visible to
/// queries (scans and gets read them alongside runs and the live
/// buffer) and leave when their 1-pass run is installed, or when the
/// flush's claim drops without one (back into the buffer).
struct SealedBatch {
    /// Oldest timestamp sealed into it (before duplicate folding).
    min_ts: Timestamp,
    /// Sorted, deduplicated updates; shared with query snapshots, and
    /// with the batch's claim and flush, which tell the batch by this
    /// `Arc` (`Arc::ptr_eq`).
    updates: Arc<Vec<UpdateRecord>>,
}

pub(super) struct EngineState {
    pub(super) buffer: UpdateBuffer,
    /// Updates accepted into `buffer` since the engine was opened, and
    /// their encoded bytes (for write-amplification accounting):
    /// counted where an update enters the buffer, under the lock that
    /// hold already has.
    pub(super) ingested_updates: u64,
    pub(super) ingested_bytes: u64,
    pub(super) runs: RunSet,
    /// Sealed batches awaiting their flush, oldest first.
    sealed: Vec<SealedBatch>,
    /// Snapshot-publication counter: bumped by every install and retire.
    epoch: u64,
    /// Active query timestamps → pin bookkeeping.
    active_queries: BTreeMap<Timestamp, QueryPin>,
    /// Total pinned query pages across active scans.
    pinned_pages: u64,
    /// SSD bytes of runs retired since the allocator last rewound.
    retired_bytes: u64,
    /// A planned merge (2-pass merge or compaction) is in flight.
    merging: bool,
    migrating: bool,
}

/// Everything a query reads besides the heap: immutable `Arc`s and a
/// copy of the matching buffer entries, taken under one lock hold.
pub(super) struct Snapshot {
    /// The run set as published at the pin: one shared slice.
    pub(super) runs: Arc<[Arc<SortedRun>]>,
    /// Sealed batches: their updates are not yet in any run.
    pub(super) sealed: Vec<Arc<Vec<UpdateRecord>>>,
    pub(super) mem: Vec<UpdateRecord>,
}

/// What a newly built run takes the place of.
#[derive(Clone, Copy)]
pub(super) enum Replaced<'a> {
    /// The sealed batch it was flushed from.
    Batch(&'a Arc<Vec<UpdateRecord>>),
    /// The runs it was merged from.
    Runs(&'a [Arc<SortedRun>]),
}

impl EngineState {
    pub(super) fn new(buffer: UpdateBuffer, runs: RunSet) -> Self {
        EngineState {
            buffer,
            ingested_updates: 0,
            ingested_bytes: 0,
            runs,
            sealed: Vec::new(),
            epoch: 0,
            active_queries: BTreeMap::new(),
            pinned_pages: 0,
            retired_bytes: 0,
            merging: false,
            migrating: false,
        }
    }

    /// Pin a query snapshot at `ts`: register the query (so no
    /// migration stamps pages above it, no fold hides a version from
    /// it, and no extent it reads is reused) and hand out what it
    /// reads of `[begin, end]`. A scan pins one query page per run (as
    /// many as its snapshot has runs); its unpin names them.
    #[inline]
    pub(super) fn pin(&mut self, ts: Timestamp, begin: Key, end: Key, scan: bool) -> Snapshot {
        let runs = self.runs.shared();
        let pages = if scan { runs.len() as u64 } else { 0 };
        let pin = self.active_queries.entry(ts).or_insert(QueryPin {
            queries: 0,
            pages: 0,
            epoch: self.epoch,
        });
        pin.queries += 1;
        pin.pages += pages;
        self.pinned_pages += pages;
        Snapshot {
            runs,
            sealed: self.sealed.iter().map(|b| Arc::clone(&b.updates)).collect(),
            mem: self.buffer.snapshot_range(begin, end, ts),
        }
    }

    /// Query pages held by open scans.
    #[inline]
    pub(super) fn query_pages_pinned(&self) -> u64 {
        self.pinned_pages
    }

    /// Epochs the oldest pinned query snapshot trails the current one
    /// (0 when no query is active).
    pub(super) fn epoch_lag(&self) -> u64 {
        let oldest = self.active_queries.values().map(|p| p.epoch).min();
        oldest.map_or(0, |oldest| self.epoch.saturating_sub(oldest))
    }

    /// The fold guard (§3.5 "Handling Skews"): two versions `t1 < t2`
    /// of a key may fold only when no query timestamp `t1 < t ≤ t2` is
    /// active. (A query that draws a fresh timestamp *after* the guard
    /// is taken is safe: it draws it under the log order, which no
    /// update holds any more once it is in the buffer, hence above
    /// every update the guard is asked about.)
    pub(super) fn fold_guard(&self) -> impl Fn(Timestamp, Timestamp) -> bool {
        let active: Vec<Timestamp> = self.active_queries.keys().copied().collect();
        move |t1, t2| !active.iter().any(|&t| t1 < t && t <= t2)
    }

    /// Seal the in-memory buffer into an immutable sealed batch
    /// (sorted, optionally duplicate-folded) and hand it to the caller
    /// with its flush claim. The lock this state sits under must be
    /// released before the claim is dropped.
    pub(super) fn seal<'a>(
        &mut self,
        engine: &'a MasmEngine,
    ) -> (Claim<'a>, Arc<Vec<UpdateRecord>>) {
        let mut updates = self.buffer.drain_sorted();
        let min_ts = updates.iter().map(|u| u.ts).min().unwrap_or(Timestamp::MAX);
        if engine.cfg.merge_duplicates {
            updates = fold_duplicates(updates, &engine.schema, self.fold_guard());
        }
        let updates = Arc::new(updates);
        self.sealed.push(SealedBatch {
            min_ts,
            updates: Arc::clone(&updates),
        });
        let what = Claimed::Batch(Arc::clone(&updates));
        (Claim { engine, what }, updates)
    }

    /// Where sealed batch `batch` sits, while it is sealed.
    fn sealed_at(&self, batch: &Arc<Vec<UpdateRecord>>) -> Option<usize> {
        self.sealed
            .iter()
            .position(|b| Arc::ptr_eq(&b.updates, batch))
    }

    /// What the `RunCreated` of sealed batch `batch`'s run logs as its
    /// `max_ts`: the batch's newest timestamp, lowered below every
    /// update that is in no logged run yet — in another sealed batch (an
    /// older one whose flush is still in flight, or a failed flush's
    /// updates sealed again) or back in the buffer. Recovery treats the
    /// logged updates at or below it as flushed, so it may name only
    /// updates that are.
    pub(super) fn flushed_through(
        &self,
        batch: &Arc<Vec<UpdateRecord>>,
        max_ts: Timestamp,
    ) -> Timestamp {
        let others = self
            .sealed
            .iter()
            .filter(|b| !Arc::ptr_eq(&b.updates, batch));
        let unflushed = others.map(|b| b.min_ts).chain(self.buffer.min_ts()).min();
        unflushed.map_or(max_ts, |oldest| max_ts.min(oldest.saturating_sub(1)))
    }

    /// Claim the merge slot together with the inputs `plan` picks: one
    /// merge at a time, and none while a migration is in flight (it is
    /// about to retire every run). `None` when the slot is taken or
    /// `plan` finds nothing to merge.
    /// The lock this state sits under must be released before the
    /// claim is dropped.
    pub(super) fn claim_merge<'a>(
        &mut self,
        engine: &'a MasmEngine,
        plan: impl FnOnce(&RunSet) -> Option<Vec<Arc<SortedRun>>>,
    ) -> Option<(Claim<'a>, Vec<Arc<SortedRun>>)> {
        if self.merging || self.migrating {
            return None;
        }
        let inputs = plan(&self.runs)?;
        self.merging = true;
        let what = Claimed::Merge;
        Some((Claim { engine, what }, inputs))
    }

    /// Install a built and logged run: publish it and withdraw what it
    /// replaces in one critical section, so a query snapshot holds
    /// exactly one of the two.
    pub(super) fn install(&mut self, run: SortedRun, replaced: Replaced<'_>, cache: &BlockCache) {
        cache.retain_meta_bytes(run.memory_bytes());
        self.runs.add(Arc::new(run));
        self.epoch += 1;
        match replaced {
            Replaced::Batch(batch) => {
                let pos = self.sealed_at(batch).expect("claimed batch still sealed");
                self.sealed.remove(pos);
            }
            Replaced::Runs(inputs) => self.withdraw(inputs, cache),
        }
    }

    /// Retire runs a migration has applied to the heap.
    pub(super) fn retire(&mut self, runs: &[Arc<SortedRun>], cache: &BlockCache) {
        self.withdraw(runs, cache);
        self.epoch += 1;
    }

    /// Take `runs` out of the visible set. Their SSD extents are
    /// retired, not freed — a pinned query snapshot may still be
    /// reading them — and are recycled only at the quiesce rewind.
    fn withdraw(&mut self, runs: &[Arc<SortedRun>], cache: &BlockCache) {
        let ids: Vec<u64> = runs.iter().map(|r| r.id).collect();
        // Release the metadata footprint (zone maps + blooms) of the
        // runs that are still registered.
        let live = self.runs.runs().iter().filter(|r| ids.contains(&r.id));
        cache.release_meta_bytes(live.map(|r| r.memory_bytes()).sum());
        self.runs.remove_ids(&ids);
        self.retired_bytes += runs.iter().map(|r| r.bytes).sum::<u64>();
    }

    /// Recycle retired run extents once the engine quiesces: no active
    /// query snapshot can still be reading a retired run, no sealed
    /// batch has an extent allocation in flight, and no merge or
    /// migration holds an unpublished extent. Until then the bump
    /// allocator never reuses space, which is what makes lock-free
    /// snapshot reads of retired runs safe.
    #[inline]
    fn maybe_rewind(&mut self, engine: &MasmEngine) {
        if self.retired_bytes == 0
            || !self.active_queries.is_empty()
            || !self.sealed.is_empty()
            || self.merging
            || self.migrating
        {
            return;
        }
        // Emitting under the state lock is fine: the recorder is
        // lock-free and never does I/O.
        engine.trace_instant(
            "epoch.retire",
            engine.ssd.clock().now(),
            "bytes",
            self.retired_bytes,
        );
        self.retired_bytes = 0;
        // Retired run space becomes reusable only now that no scan can
        // touch it.
        self.runs.rewind_space();
    }
}

/// What a [`Claim`] holds.
enum Claimed {
    Batch(Arc<Vec<UpdateRecord>>),
    Merge,
    Migration,
}

/// Exclusive ownership of one maintenance job, taken under the state
/// lock and held across the job's unlocked I/O. Dropping it — on
/// success, on error, on an early return — releases the job, rewinds
/// the run allocator if the engine has quiesced, and wakes everything
/// waiting on the state, so no job writes an error arm of its own.
pub(super) struct Claim<'a> {
    engine: &'a MasmEngine,
    what: Claimed,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut st = self.engine.state.lock();
        match &self.what {
            // The batch is gone when its run was installed. Otherwise
            // the flush gave up: its updates go back into the buffer
            // (the log holds them all), so nothing is lost, queries
            // keep seeing them, and the next flush retries them.
            Claimed::Batch(batch) => {
                if let Some(pos) = st.sealed_at(batch) {
                    let batch = st.sealed.remove(pos);
                    for u in batch.updates.iter() {
                        st.buffer.push(u.clone());
                    }
                }
            }
            Claimed::Merge => st.merging = false,
            Claimed::Migration => st.migrating = false,
        }
        st.maybe_rewind(self.engine);
        drop(st);
        self.engine.quiesce.notify_all();
    }
}

/// The pin of a point lookup, released when it drops: no way out of
/// the lookup — a result, an error, a panic — can leave a query
/// registered that nobody will unpin (a migration would wait for it
/// forever). A scan's pin lives as long as its `MergeScan` instead.
pub(super) struct LookupPin<'a> {
    engine: &'a MasmEngine,
    ts: Timestamp,
}

impl LookupPin<'_> {
    /// The lookup's query timestamp.
    pub(super) fn ts(&self) -> Timestamp {
        self.ts
    }
}

impl Drop for LookupPin<'_> {
    fn drop(&mut self) {
        self.engine.unpin(self.ts, 0);
    }
}

impl MasmEngine {
    /// Draw a query timestamp under the log order and pin a point
    /// lookup of `key` at it.
    #[inline]
    pub(super) fn pin_lookup(&self, key: Key) -> (LookupPin<'_>, Snapshot) {
        let mut order = self.wal.order();
        let mut st = self.state.lock();
        let ts = order.draw();
        let snapshot = st.pin(ts, key, key, false);
        (LookupPin { engine: self, ts }, snapshot)
    }

    /// Release the pin of one query at `ts`, which pinned `pages`
    /// query pages.
    #[inline]
    pub(super) fn unpin(&self, ts: Timestamp, pages: u64) {
        let mut st = self.state.lock();
        if let Entry::Occupied(mut pin) = st.active_queries.entry(ts) {
            let pin_of = pin.get_mut();
            pin_of.queries -= 1;
            pin_of.pages -= pages;
            if pin_of.queries == 0 {
                pin.remove();
            }
            st.pinned_pages -= pages;
        }
        st.maybe_rewind(self);
        drop(st);
        self.quiesce.notify_all();
    }

    /// Claim the migration slot; `None` while another migration runs.
    pub(super) fn claim_migration(&self) -> Option<Claim<'_>> {
        let mut st = self.state.lock();
        if std::mem::replace(&mut st.migrating, true) {
            return None;
        }
        let what = Claimed::Migration;
        Some(Claim { engine: self, what })
    }

    /// Drain buffered and sealed updates into runs so that every
    /// update earlier than the migration timestamp lives in a run:
    /// migrated pages carry `mig_ts`, which must truthfully mean "all
    /// updates with ts ≤ mig_ts are in this page". Returns the
    /// migration timestamp and the runs to migrate, or `None` when
    /// nothing is cached. Caller holds the migration claim. The
    /// timestamp is drawn under the log order, so no update is drawn
    /// below it and still on its way into the buffer; the order is
    /// released before a flush (which logs its run) or a wait.
    pub(super) fn drain_into_runs(
        &self,
        session: &SessionHandle,
    ) -> MasmResult<Option<(Timestamp, Vec<Arc<SortedRun>>)>> {
        loop {
            let mut order = self.wal.order();
            let mut st = self.state.lock();
            if !st.buffer.is_empty() {
                let sealed = st.seal(self);
                drop((st, order));
                self.flush_batch(session, sealed)?;
            } else if !st.sealed.is_empty() {
                // Other callers are flushing the remaining batches; wait
                // for each to install its run (or put its updates back
                // into the buffer) and re-check.
                drop(order);
                self.quiesce.wait(st.inner_mut());
            } else if st.runs.is_empty() {
                return Ok(None);
            } else {
                return Ok(Some((order.draw(), st.runs.runs().to_vec())));
            }
        }
    }

    /// Wait for queries earlier than `ts` (§3.2: they must not observe
    /// pages stamped with it). Queries arriving after `ts` run
    /// concurrently throughout — page timestamps keep them correct, and
    /// the runs' SSD extents stay allocated until the post-quiesce
    /// rewind.
    pub(super) fn await_queries_before(&self, ts: Timestamp) {
        let mut st = self.state.lock();
        while st.active_queries.keys().next().is_some_and(|&t| t < ts) {
            self.quiesce.wait(st.inner_mut());
        }
    }
}
