//! The read path: merged range scans and point lookups over a pinned
//! snapshot.

use std::sync::Arc;

use masm_blockrun::BloomFilter;
use masm_pagestore::{Key, RangeScan, Record};
use masm_storage::{Ns, SessionHandle};
use masm_telemetry::Timer;

use super::MasmEngine;
use crate::error::{MasmError, MasmResult};
use crate::merge::{MergeDataUpdates, MergeUpdates, UpdateStream};
use crate::run::{lookup_in_run, RunScan, ScanFailures};
use crate::ts::Timestamp;
use crate::update::UpdateRecord;

impl MasmEngine {
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
        let _setup = self.trace_span("scan.setup", &session);
        let (query_ts, snapshot) = loop {
            // A fresh timestamp is drawn under the log order; the flush
            // and the merge below log their runs, so they release it.
            let mut order = as_of.is_none().then(|| self.wal.order());
            let mut st = self.state.lock();
            // Fig. 8 scan setup, lines 1–4: flush a full buffer first. A
            // full SSD is not fatal here — the scan simply reads the
            // buffer through Mem_scan; the engine reports
            // `needs_migration`.
            if st.buffer.bytes() >= self.cfg.update_buffer_bytes() as usize
                && st.runs.live_bytes() + st.buffer.bytes() as u64 <= self.cfg.ssd_capacity
            {
                let sealed = st.seal(self);
                drop((st, order));
                self.flush_batch(&session, sealed)?;
                continue;
            }
            // Lines 5–8: cap the number of open runs by the query pages.
            if st.runs.len() > self.cfg.query_pages() as usize {
                if let Some((claim, inputs)) =
                    st.claim_merge(self, |runs| runs.plan_merge(&self.cfg))
                {
                    drop((st, order));
                    self.merge_runs(&session, claim, inputs, self.cfg.merge_duplicates)?;
                    continue;
                }
            }
            let query_ts =
                as_of.unwrap_or_else(|| order.as_mut().expect("held without `as_of`").draw());
            break (query_ts, st.pin(query_ts, begin, end, true));
        };

        let failures = ScanFailures::default();
        let mut streams: Vec<UpdateStream> =
            Vec::with_capacity(snapshot.runs.len() + snapshot.sealed.len() + 2);
        for run in snapshot.runs.iter() {
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
            .with_fetch_histogram(Arc::clone(&self.metrics.block_fetch))
            .reporting_to(failures.clone());
            if let Some(t) = self.tracer_arc() {
                scan = scan.with_trace(t);
            }
            streams.push(Box::new(scan));
        }
        for batch in snapshot.sealed {
            let in_range = key_range(&batch, begin, end);
            if !in_range.is_empty() {
                streams.push(Box::new(in_range.map(move |i| batch[i].clone())));
            }
        }
        streams.push(Box::new(snapshot.mem.into_iter()));
        if !private.is_empty() {
            private.sort_by_key(|a| (a.key, a.ts));
            private.retain(|u| u.key >= begin && u.key <= end);
            streams.push(Box::new(private.into_iter()));
        }

        let data = self.heap.scan_range(session.clone(), begin, end);
        let updates = MergeUpdates::new(streams, self.schema.clone(), query_ts)
            .reporting_to(failures.clone());
        let join = MergeDataUpdates::new(data, updates, self.schema.clone())
            .reporting_to(failures.clone());
        Ok(MergeScan {
            inner: join,
            failures,
            error: None,
            engine: Arc::clone(self),
            session,
            ts: query_ts,
            unreported: 0,
            stall: 0,
        })
    }

    /// Point lookup: the freshest visible version of `key`.
    ///
    /// Touches only what it returns. Each materialized run is asked in
    /// three steps — its key fence, its bloom filter (the key hashed
    /// once for all runs), and only then the one block whose zone
    /// covers the key, through the shared block cache — and shows its
    /// matches to a visitor, so a run without the key costs no I/O and
    /// no allocation. Sealed batches are cut by binary search, the
    /// in-memory buffer is filtered on its key column, and the heap
    /// page that owns the key is probed **in place**
    /// ([`masm_pagestore::TableHeap::with_page_of`]): a binary search
    /// of its slot directory, one record decoded. All updates visible at the
    /// lookup's timestamp are applied to the heap base record (page
    /// timestamps skip updates a migration already folded in), so the
    /// result is exactly what a [`MasmEngine::begin_scan`] of
    /// `[key, key]` would return, at a fraction of the cost.
    pub fn get(self: &Arc<Self>, session: &SessionHandle, key: Key) -> MasmResult<Option<Record>> {
        let _t = Timer::start(&self.metrics.get, || session.now());
        let _sp = self.trace().and_then(|t| {
            let s = session.clone();
            t.op_span("get", self.track(), move || s.now())
        });
        // Pinned as an active query, so a concurrent migration cannot
        // retire the runs (and recycle their SSD space) mid-lookup; the
        // guard unpins on every way out of here.
        let (pin, snapshot) = self.pin_lookup(key);
        let ts = pin.ts();

        let mut updates: Vec<UpdateRecord> = Vec::new();
        let hashes = BloomFilter::hashes_of(key);
        let (ssd, cache) = (&self.ssd, Some(&*self.cache));
        for run in snapshot.runs.iter() {
            lookup_in_run(session, ssd, run, cache, key, hashes, |u| {
                if u.ts <= ts {
                    updates.push(u);
                }
            })?;
        }
        for batch in &snapshot.sealed {
            let versions = batch[key_range(batch, key, key)].iter();
            updates.extend(versions.filter(|u| u.ts <= ts).cloned());
        }
        updates.extend(snapshot.mem);
        updates.sort_by_key(|u| u.ts);

        // Page resolution and read are one step under one heap lock
        // hold (see the module doc of `engine`).
        let base = self.heap.with_page_of(session, key, |page| {
            let record = page.find(key).ok().map(|slot| page.record(slot));
            (record, page.timestamp())
        })?;
        let (mut current, page_ts) = base.unwrap_or((None, 0));
        for u in updates {
            if u.ts > page_ts {
                let applied = u.try_apply_to(current, &self.schema);
                current = applied.ok_or(MasmError::Corrupt("run entry"))?;
            }
        }
        Ok(current)
    }
}

/// Where in a sealed batch — sorted by key, then timestamp — the
/// updates with keys in `[begin, end]` lie.
fn key_range(batch: &[UpdateRecord], begin: Key, end: Key) -> std::ops::Range<usize> {
    let lo = batch.partition_point(|u| u.key < begin);
    let len = batch[lo..].partition_point(|u| u.key <= end);
    lo..lo + len
}

/// A merged range scan: the operator tree of Figure 6 rooted at
/// `Merge_data_updates`, plus the pin that lets migration wait for
/// earlier queries.
///
/// `next` pops from the join's buffer; everything with a lock or an
/// atomic in it — session-clock reads, the `scan_next` histogram —
/// happens in `refill`, once per heap page.
pub struct MergeScan {
    inner: MergeDataUpdates<RangeScan, MergeUpdates>,
    /// Where this scan's run scans report a failure; see
    /// [`MergeScan::error`].
    failures: ScanFailures,
    error: Option<MasmError>,
    engine: Arc<MasmEngine>,
    session: SessionHandle,
    ts: Timestamp,
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

    /// The read error that ended the scan early, if one did: the
    /// records returned so far are right, but they are not all of them.
    /// A heap read that failed is a [`MasmError::Storage`]; a run scan
    /// that failed is what it reported — `Storage` for a device error,
    /// `BlockRun` for a block that fails its checksum or does not
    /// decode, `Corrupt("run entry")` for an update that does not, or
    /// that does not fit the record it patches.
    pub fn error(&self) -> Option<&MasmError> {
        self.error.as_ref()
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
        self.inner.refill();
        if self.error.is_none() {
            self.error = match self.failures.check() {
                // A run scan failed during this join step and ended its
                // stream: the step's records may have been joined
                // against a truncated update side, so none is handed out.
                Err(failure) => {
                    self.inner.abort();
                    Some(failure)
                }
                // `Some` only once the join has ended: the heap scan
                // keeps its error while the join still guards on it.
                Ok(()) => self.inner.take_error().map(MasmError::Storage),
            };
        }
        let stall = self.session.now().saturating_sub(start);
        if stall > 0 {
            // Inside a refill the session clock moves only while it
            // waits for I/O: the records before it are settled.
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
        self.engine.unpin(self.ts);
    }
}
