//! The read path: merged range scans and point lookups over a pinned
//! snapshot.

use std::sync::Arc;

use masm_blockrun::BloomFilter;
use masm_pagestore::{Key, RangeScan, Record};
use masm_storage::{Ns, SessionHandle};
use masm_telemetry::{Histogram, Timer};

use super::MasmEngine;
use crate::error::{MasmError, MasmResult};
use crate::merge::{Join, MemUpdates, QuerySource, RunMerge, RunUpdates, Watch};
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
        let mut sources = Vec::with_capacity(snapshot.runs.len() + snapshot.sealed.len() + 2);
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
            sources.push(QuerySource::Run(Box::new(scan)));
        }
        for batch in snapshot.sealed {
            let in_range = key_range(&batch, begin, end);
            if !in_range.is_empty() {
                sources.push(QuerySource::Mem(MemUpdates::new(batch, in_range)));
            }
        }
        let mem = snapshot.mem.len();
        sources.push(QuerySource::Mem(MemUpdates::new(
            Arc::new(snapshot.mem),
            0..mem,
        )));
        if !private.is_empty() {
            private.sort_by_key(|a| (a.key, a.ts));
            private.retain(|u| u.key >= begin && u.key <= end);
            let n = private.len();
            sources.push(QuerySource::Mem(MemUpdates::new(Arc::new(private), 0..n)));
        }

        let data = self.heap.scan_range(session.clone(), begin, end);
        let merge = RunMerge::new(sources);
        let updates = RunUpdates::new(merge, self.schema.clone(), query_ts, failures.clone());
        Ok(MergeScan {
            data,
            join: Join::new(updates, self.schema.clone(), failures.clone()),
            failures,
            error: None,
            engine: Arc::clone(self),
            ts: query_ts,
            pages: snapshot.runs.len() as u64,
            stalls: Stalls::new(session),
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
/// `next` makes one join step: it decodes the next in-range record
/// straight out of the heap scan's page buffer — one comparison with
/// the next update's key lets it pass, no buffer of joined records is
/// kept — and applies an update to it as the bytes of its operation,
/// lent by the loser-tree merge of the run scans and the in-memory
/// sources (`RunUpdates`). The session clock is read only around the
/// steps that can wait for a device, a heap-page advance and an update
/// pull; the error slot only after a pull, through its flag.
pub struct MergeScan {
    data: RangeScan,
    join: Join<RunUpdates<QuerySource>>,
    /// Where this scan's run scans report a failure; see
    /// [`MergeScan::error`].
    failures: ScanFailures,
    error: Option<MasmError>,
    engine: Arc<MasmEngine>,
    ts: Timestamp,
    /// Query pages this scan pinned.
    pages: u64,
    stalls: Stalls,
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
}

impl Iterator for MergeScan {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if let Some(record) = self.join.pass(&mut self.data) {
            self.stalls.open.1 += 1;
            return Some(record);
        }
        self.stalls.begin();
        match self.join.step(&mut self.data, &mut self.stalls) {
            Some(record) => {
                self.stalls.handed_out(&self.engine.metrics.scan_next);
                Some(record)
            }
            None => {
                self.stalls.ended();
                if self.error.is_none() {
                    self.error = match self.failures.check() {
                        Err(failure) => Some(failure),
                        Ok(()) => self.data.take_error().map(MasmError::Storage),
                    };
                }
                None
            }
        }
    }
}

impl Drop for MergeScan {
    fn drop(&mut self) {
        self.stalls.finish(&self.engine.metrics.scan_next);
        self.engine.unpin(self.ts, self.pages);
    }
}

/// A merged scan's `scan_next` samples: one per record returned. The
/// session time its heap-page advances and update pulls wait is summed
/// per heap-page *window* — a page's advance and the pulls made while
/// its records are joined — and a window's wait is carried by the first
/// record returned after it; every other record costs nothing. So a
/// scan dropped early reports exactly what it returned, and what the
/// call that finds the end waits returns no record and is not reported.
struct Stalls {
    session: SessionHandle,
    /// The open window: its wait so far, and the records returned out
    /// of it.
    open: (Ns, u64),
    /// The open window as it was when the current call began.
    at_call: (Ns, u64),
    /// The windows the current call closed: the first, and the wait of
    /// those after it, which returned nothing.
    closed: Option<(Ns, u64)>,
    later: Ns,
    /// The sample being gathered: its wait and the records it covers.
    pending: (Ns, u64),
}

impl Stalls {
    fn new(session: SessionHandle) -> Self {
        Stalls {
            session,
            open: (0, 0),
            at_call: (0, 0),
            closed: None,
            later: 0,
            pending: (0, 0),
        }
    }

    fn timed<T>(&mut self, step: impl FnOnce() -> T) -> T {
        let start = self.session.now();
        let out = step();
        self.open.0 += self.session.now().saturating_sub(start);
        out
    }

    /// A call to `next` begins.
    fn begin(&mut self) {
        self.at_call = self.open;
    }

    /// The call returns a record: settle the windows it closed.
    fn handed_out(&mut self, hist: &Histogram) {
        if let Some(first) = self.closed.take() {
            let later = std::mem::take(&mut self.later);
            self.close(first, hist);
            self.close((later, 0), hist);
        }
        self.open.1 += 1;
    }

    /// The call returns nothing: the join has ended, and the wait it
    /// spent finding that out is not a record's.
    fn ended(&mut self) {
        (self.open, self.closed, self.later) = (self.at_call, None, 0);
    }

    /// A window that waited starts a new sample once the one gathered
    /// covers a record.
    fn close(&mut self, (stall, records): (Ns, u64), hist: &Histogram) {
        if stall > 0 && self.pending.1 > 0 {
            self.report(hist);
        }
        self.pending.0 += stall;
        self.pending.1 += records;
    }

    fn report(&mut self, hist: &Histogram) {
        let (stall, records) = std::mem::take(&mut self.pending);
        if records > 0 {
            hist.record(stall);
            hist.record_n(0, records - 1);
        }
    }

    /// The scan is dropped.
    fn finish(&mut self, hist: &Histogram) {
        let open = std::mem::take(&mut self.open);
        self.close(open, hist);
        self.report(hist);
    }
}

impl Watch for Stalls {
    fn page(&mut self, advance: impl FnOnce() -> bool) -> bool {
        let window = std::mem::take(&mut self.open);
        match self.closed {
            None => self.closed = Some(window),
            Some(_) => self.later += window.0,
        }
        self.timed(advance)
    }

    fn pull(
        &mut self,
        pull: impl FnOnce() -> Option<(Key, Timestamp)>,
    ) -> Option<(Key, Timestamp)> {
        self.timed(pull)
    }
}
