//! Maintenance: flush, merge and migration — each one claim → work →
//! install/retire pass of the protocol in [`super`].

use std::sync::Arc;

use masm_pagestore::{Key, PageChunk, Record};
use masm_storage::{MergeReport, SessionHandle};
use masm_telemetry::Timer;

use super::state::{Claim, Replaced};
use super::{MasmEngine, MigrationReport};
use crate::error::{MasmError, MasmResult};
use crate::merge::{compact_block_runs, join_chunk, LentUpdates, RunMerge, RunUpdates};
use crate::run::{build_run, write_built, RunScan, ScanFailures, SortedRun};
use crate::ts::Timestamp;
use crate::update::{OpRef, UpdateRecord};
use crate::wal::WalRecord;

impl MasmEngine {
    /// Materialize a sealed batch as a 1-pass run on the calling
    /// thread. On error the updates are still durable (WAL), and the
    /// batch's claim puts them back into the buffer as it drops, so
    /// queries keep seeing them and the next flush retries them.
    pub(super) fn flush_batch(
        &self,
        session: &SessionHandle,
        (_claim, batch): (Claim<'_>, Arc<Vec<UpdateRecord>>),
    ) -> MasmResult<()> {
        let _t = Timer::start(&self.metrics.flush, || session.now());
        let mut span = self.trace_span("flush", session);
        if let Some(span) = &mut span {
            span.set_arg("updates", batch.len() as u64);
        }
        let (run, encoded) = build_run(&self.cfg, 0, 0, 1, &batch);
        self.install_run(session, run, &encoded, Replaced::Batch(&batch))
    }

    /// Materialize any buffered updates as a 1-pass sorted run now.
    /// Public so callers (benchmarks, tests) can cut a run at a
    /// workload boundary instead of waiting for the buffer to fill; a
    /// no-op on an empty buffer.
    pub fn flush_buffer(&self, session: &SessionHandle) -> MasmResult<()> {
        let sealed = {
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
            st.seal(self)
        };
        self.flush_batch(session, sealed)
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
        let claim = self
            .state
            .lock()
            .claim_merge(self, |runs| (runs.len() >= 2).then(|| runs.runs().to_vec()));
        match claim {
            Some((claim, inputs)) => self.merge_runs(session, claim, inputs, true),
            None => Ok(MergeReport::default()),
        }
    }

    /// The plan → execute merge pipeline: [`compact_block_runs`] plans
    /// move/merge segments from the inputs' zone maps, relinks
    /// non-overlapping blocks verbatim (move chunks pipelined `async`,
    /// four in flight), and streams decodes of
    /// genuinely overlapping key ranges. The merge slot is released
    /// when `_claim` drops.
    pub(super) fn merge_runs(
        &self,
        session: &SessionHandle,
        _claim: Claim<'_>,
        inputs: Vec<Arc<SortedRun>>,
        fold: bool,
    ) -> MasmResult<MergeReport> {
        let mut span = self.trace_span("compact", session);
        if let Some(span) = &mut span {
            span.set_arg("inputs", inputs.len() as u64);
        }
        // The guard is a snapshot taken under the lock; the whole
        // read-merge-write runs outside it: the inputs are immutable
        // `Arc`s and the allocator hands out a private extent.
        let guard = self.state.lock().fold_guard();
        let (meta, encoded, report) = compact_block_runs(
            session,
            &self.ssd,
            &self.cfg,
            &self.schema,
            &inputs,
            fold.then_some(&guard as &dyn Fn(Timestamp, Timestamp) -> bool),
        )?;
        let run = SortedRun::from_meta(0, 2, meta);
        self.install_run(session, run, &encoded, Replaced::Runs(&inputs))?;
        self.record_merge(report);
        Ok(report)
    }

    /// Give a built run its id and SSD extent, write it, log it, and
    /// install it in place of what it was built from.
    fn install_run(
        &self,
        session: &SessionHandle,
        mut run: SortedRun,
        encoded: &[u8],
        replaced: Replaced<'_>,
    ) -> MasmResult<()> {
        // The run comes in built: the block format's encoded size
        // (compression, zone maps, bloom, footer) is only known after
        // building, and the extent must be allocated before the write.
        let (id, base, max_ts) = {
            let mut st = self.state.lock();
            let max_ts = match replaced {
                Replaced::Batch(batch) => st.flushed_through(batch, run.max_ts),
                Replaced::Runs(_) => run.max_ts,
            };
            (st.runs.next_id(), st.runs.alloc_space(run.bytes), max_ts)
        };
        run.id = id;
        run.rebase(base);
        // Runs append from their own allocator cursor. The simulator
        // tracks one head position shared by reads and writes, so the
        // run's first write would classify as random purely because of
        // interleaved WAL/heap traffic on a shared clock, or because a
        // merge just *read* its inputs — on flash the new sequential
        // write stream pays no such penalty. Prime at the extent base
        // to drop only that cross-stream artifact; writes within the
        // run still classify on their own (an out-of-order writer
        // would surface as random_writes > 0).
        self.ssd.prime_head_position(base);
        let written = (|| {
            write_built(session, &self.ssd, &run, encoded)?;
            self.wal.append(
                session,
                &WalRecord::RunCreated {
                    id,
                    base,
                    bytes: run.bytes,
                    count: run.count,
                    passes: run.passes,
                    max_ts,
                },
            )?;
            if let Replaced::Runs(inputs) = replaced {
                let ids = inputs.iter().map(|r| r.id).collect();
                self.wal.append(session, &WalRecord::RunsDeleted(ids))?;
            }
            Ok(())
        })();
        if let Err(e) = written {
            // The extent stays burned until the quiesce rewind; only
            // the live-byte accounting is released.
            self.state.lock().runs.free_space(run.bytes);
            return Err(e);
        }
        self.record_compression(&run);
        self.state.lock().install(run, replaced, &self.cache);
        Ok(())
    }

    /// Migrate every cached update of this engine back into the main
    /// data, in place (§3.2 "In-Place Migration"), and retire the runs.
    /// Blocks until queries older than the migration timestamp finish;
    /// queries arriving afterwards run concurrently and stay correct
    /// via page timestamps.
    pub fn migrate(self: &Arc<Self>, session: &SessionHandle) -> MasmResult<MigrationReport> {
        self.migrate_span(session, (0, Key::MAX))
    }

    /// Partial migration — §3.5 "Improving Migration": rewrite only the
    /// data pages overlapping `[begin, end]`, distributing migration
    /// cost across several smaller operations. Runs are **not** deleted
    /// (they still hold updates of other pages); a later
    /// [`MasmEngine::migrate`] retires them. Page timestamps keep
    /// double-application harmless, so partial and full migrations
    /// compose freely.
    pub fn migrate_range(
        self: &Arc<Self>,
        session: &SessionHandle,
        begin: Key,
        end: Key,
    ) -> MasmResult<MigrationReport> {
        self.migrate_span(session, (begin, end))
    }

    /// Migration over a key span: see the module doc of [`super`].
    fn migrate_span(
        &self,
        session: &SessionHandle,
        span: (Key, Key),
    ) -> MasmResult<MigrationReport> {
        let Some(_claim) = self.claim_migration() else {
            return Ok(MigrationReport::default());
        };
        let _sp = self.trace_span("migrate", session);
        let Some((mig_ts, runs)) = self.drain_into_runs(session)? else {
            return Ok(MigrationReport::default());
        };
        // Only a migration of every key has applied everything the runs
        // hold: it alone retires them, and it alone is logged for
        // crash-redo.
        let whole = span == (0, Key::MAX);
        let run_ids: Vec<u64> = runs.iter().map(|r| r.id).collect();
        if whole {
            let begin = WalRecord::MigrationBegin {
                ts: mig_ts,
                run_ids: run_ids.clone(),
            };
            self.wal.append(session, &begin)?;
        }
        // Past the early returns: this is a real migration, time it
        // end-to-end (quiesce wait + merge + run retirement).
        let _t = Timer::start(&self.metrics.migrate, || session.now());
        // Session cursors do not advance while parked on the condvar,
        // so the quiesce wait is timed on the global device clock.
        let q0 = self.ssd.clock().now();
        self.await_queries_before(mig_ts);
        let q1 = self.ssd.clock().now();
        if q1 > q0 {
            if let Some(t) = self.trace() {
                t.span_event("migrate.quiesce", self.track(), q0, q1 - q0, "ts", mig_ts);
            }
        }

        let report = self.rewrite_span(session, mig_ts, &runs, span)?;
        if whole {
            self.wal.append(session, &WalRecord::RunsDeleted(run_ids))?;
            self.wal
                .append(session, &WalRecord::MigrationEnd { ts: mig_ts })?;
            // Queries that started after `mig_ts` and still hold the
            // old snapshot keep reading the retired runs safely.
            self.state.lock().retire(&runs, &self.cache);
        }
        Ok(report)
    }

    /// The migration inner loop: chunked merge of the heap pages
    /// overlapping `span` with the sorted runs.
    fn rewrite_span(
        &self,
        session: &SessionHandle,
        mig_ts: Timestamp,
        runs: &[Arc<SortedRun>],
        span: (Key, Key),
    ) -> MasmResult<MigrationReport> {
        let mut rewriter = self.heap.rewriter_range(session.clone(), span.0, span.1);
        // The pages own more keys than `span` asked for, and a page
        // stamped `mig_ts` must have absorbed every update ≤ `mig_ts`
        // to *any* key it owns (gap inserts included): the run scans
        // open over what the pages own.
        let (lo, hi) = rewriter.key_span();
        // Migration reads bypass the block cache: the runs are retired
        // as soon as the migration completes, so inserting their blocks
        // would evict hot query blocks for entries that can never be hit
        // again (run ids are not reused). Each of the k run scans keeps
        // up to min(k, 16) reads in flight, so together they keep the
        // SSD queue full while the merged stream drains into the heap
        // rewrite (§3.7).
        let overlapping: Vec<&Arc<SortedRun>> = runs
            .iter()
            .filter(|r| r.max_key >= lo && r.min_key <= hi)
            .collect();
        let depth = self.cfg.merge_prefetch_depth(overlapping.len());
        // A run scan that fails ends its stream and says so here; the
        // slot is checked before anything joined against the streams
        // is committed.
        let failures = ScanFailures::default();
        let scans: Vec<RunScan> = overlapping
            .into_iter()
            .map(|r| {
                let (ssd, run) = (self.ssd.clone(), Arc::clone(r));
                let scan = RunScan::with_cache(ssd, session.clone(), run, None, lo, hi);
                scan.with_prefetch_depth(depth)
                    .reporting_to(failures.clone())
            })
            .collect();
        // The updates reach the pages as the bytes of their operations.
        let merge = RunMerge::new(scans);
        let mut updates = RunUpdates::new(merge, self.schema.clone(), mig_ts, failures.clone());
        let mut report = MigrationReport {
            ts: mig_ts,
            runs_migrated: runs.len(),
            ..MigrationReport::default()
        };

        if self.heap.num_pages() == 0 {
            // Empty table: materialize all insert/replace updates as a
            // fresh bulk load.
            let mut records: Vec<Record> = Vec::new();
            while let Some((key, _, value)) = updates.next_lent() {
                report.updates_applied += 1;
                match OpRef::parse(value).ok_or(MasmError::Corrupt("run entry"))? {
                    OpRef::Insert(p) | OpRef::Replace(p) => {
                        records.push(Record::new(key, p.to_vec()))
                    }
                    OpRef::Delete | OpRef::Modify(_) => {}
                }
            }
            failures.check()?;
            if !records.is_empty() {
                self.heap.bulk_load(session, records, 1.0)?;
                self.log_heap_loaded(session)?;
            }
            report.pages_written = self.heap.num_pages() as u64;
            return Ok(report);
        }

        // One buffer in, one out: the chunk just read becomes the next
        // output buffer, the one committed the rewriter's next read
        // buffer.
        let mut new_pages = PageChunk::new(self.heap.config().page_size);
        while let Some(old_pages) = rewriter.next_chunk()? {
            let chunk_hi = rewriter.key_span().1;
            // The outer join of Figure 6 again, over this chunk: its
            // records against the updates up to its last key (a gap
            // insert past it opens the next chunk). The last chunk
            // takes everything left — the run scans end at `hi`.
            new_pages.reset(mig_ts);
            let last_chunk = chunk_hi == hi;
            report.updates_applied += join_chunk(
                &old_pages,
                &mut updates,
                last_chunk,
                &self.schema,
                &mut new_pages,
            )?;
            // A chunk joined against a stream that ended early must
            // never be stamped: the chunks committed so far are right
            // by their page timestamps, this one stays as it was.
            failures.check()?;
            report.pages_written += new_pages.len() as u64;
            let commit = rewriter.commit_chunk(std::mem::replace(&mut new_pages, old_pages))?;
            let mut order = self.wal.order();
            let seq = order.draw();
            order.append(session, &WalRecord::MapSplice { seq, commit })?;
        }
        rewriter.finish();
        Ok(report)
    }
}
