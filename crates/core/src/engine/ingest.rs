//! The write path: bulk load, single updates, transaction commits.

use std::sync::Arc;

use masm_pagestore::{Key, Record};
use masm_storage::{SessionHandle, TrackedGuard};
use masm_telemetry::Timer;

use super::state::EngineState;
use super::MasmEngine;
use crate::error::{MasmError, MasmResult};
use crate::ts::Timestamp;
use crate::update::{UpdateOp, UpdateRecord};
use crate::wal::{LogOrder, WalRecord};

impl MasmEngine {
    /// Bulk-load the table (records sorted by key) and log the load so
    /// the heap metadata is recoverable. A table that already has heap
    /// pages is refused with [`MasmError::TableNotEmpty`] before
    /// anything is written or logged.
    pub fn load_table(
        &self,
        session: &SessionHandle,
        records: impl IntoIterator<Item = Record>,
        fill: f64,
    ) -> MasmResult<()> {
        self.heap.bulk_load(session, records, fill)?;
        self.log_heap_loaded(session)
    }

    /// Log the heap's current (bulk-loaded) metadata under a fresh
    /// heap-event sequence number, drawn under the hold that logs it.
    pub(super) fn log_heap_loaded(&self, session: &SessionHandle) -> MasmResult<()> {
        let mut order = self.wal.order();
        let seq = order.draw();
        let (page_map, min_keys, record_count) = self.heap.metadata_snapshot();
        let base = page_map.first().copied().unwrap_or(0);
        order.append(
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

    /// Atomically commit a transaction's private writes under
    /// first-committer-wins snapshot isolation (§3.6): if any written key
    /// was committed by another transaction after `start_ts`, the commit
    /// aborts with [`MasmError::Conflict`]. On success all writes carry
    /// one fresh commit timestamp, drawn under the log order like every
    /// other. A write the engine cannot represent
    /// ([`MasmError::InvalidUpdate`]) refuses the whole commit before a
    /// timestamp is drawn or the commit index touched.
    pub fn commit_writes(
        self: &Arc<Self>,
        session: &SessionHandle,
        start_ts: Timestamp,
        writes: Vec<(Key, UpdateOp)>,
    ) -> MasmResult<Timestamp> {
        for (key, op) in &writes {
            op.validate(*key, &self.schema)?;
        }
        let mut idx = self.commit_index.lock();
        for (key, _) in &writes {
            if idx.get(key).is_some_and(|&t| t > start_ts) {
                return Err(MasmError::Conflict { key: *key });
            }
        }
        let ts = self.wal.order().draw();
        for (key, _) in &writes {
            idx.insert(*key, ts);
        }
        drop(idx);
        for (key, op) in writes {
            self.ingest(session, Ok(UpdateRecord::new(ts, key, op)))?;
        }
        Ok(ts)
    }

    /// Apply one well-formed update; returns its commit timestamp. An
    /// update the encoding cannot represent or the schema cannot apply
    /// is refused with [`MasmError::InvalidUpdate`]: nothing is
    /// buffered, logged or counted. `Err` always means "not applied":
    /// a full buffer is flushed before the update is buffered, so a
    /// failed flush refuses it; an update is logged before any reader
    /// can see it, so one whose log append fails was never visible, and
    /// the log accepts nothing further until the table is recovered
    /// ([`MasmError::LogFailed`]).
    pub fn apply_update(
        self: &Arc<Self>,
        session: &SessionHandle,
        key: Key,
        op: UpdateOp,
    ) -> MasmResult<Timestamp> {
        op.validate(key, &self.schema)?;
        self.ingest(session, Err((key, op)))
    }

    /// The shared ingest path, behind the two doors that validate
    /// ([`MasmEngine::apply_update`], [`MasmEngine::commit_writes`]).
    /// `pre` is either a pre-timestamped update (a transaction commit,
    /// which drew its timestamp under the commit index and the log
    /// order, then released the order: until each write is pushed, a
    /// reader may draw above a commit it does not yet see) or the raw
    /// (key, op), whose timestamp is drawn here.
    ///
    /// Log first, then publish, in one hold of the log order: draw the
    /// timestamp, write the update's frame (the state lock released),
    /// and only once it is durable push the update into the buffer. A
    /// reader draws its timestamp under the log order too, so it never
    /// draws above an update that is drawn and not yet pushed, and it
    /// never sees an update that is not logged. A failed append leaves
    /// nothing to undo: nothing was pushed or counted. The update's
    /// bytes are copied once on the way in: its frame is encoded from a
    /// borrow into the log's buffer, then the record *moves* into the
    /// update buffer.
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
        let (mut order, st) = self.lock_with_room(session)?;
        let update = match pre {
            Ok(u) => u,
            Err((key, op)) => UpdateRecord::new(order.draw(), key, op),
        };
        drop(st);
        order.append_update(session, &update)?;
        let (ts, bytes) = (update.ts, update.encoded_len() as u64);
        let mut st = self.state.lock();
        st.buffer.push(update);
        st.ingested_updates += 1;
        st.ingested_bytes += bytes;
        Ok(ts)
    }

    /// The log order, and under it the state locked with room in the
    /// buffer for one more update. A full buffer steals an unused query
    /// page if one exists (MaSM-M, Fig. 8), or else is sealed and
    /// flushed here — before the update that found it full exists, so a
    /// failed flush leaves that update unapplied — and the buffer is
    /// checked again. The flush logs its run, so it runs with both
    /// locks released.
    fn lock_with_room(
        &self,
        session: &SessionHandle,
    ) -> MasmResult<(LogOrder<'_>, TrackedGuard<'_, EngineState>)> {
        loop {
            let order = self.wal.order();
            let mut st = self.state.lock();
            if !st.buffer.is_full() {
                return Ok((order, st));
            }
            let page = self.cfg.ssd_page_size;
            let stolen = (st.buffer.capacity() - st.buffer.base_capacity()) / page;
            let in_use = st.query_pages_pinned() + stolen as u64;
            if self.cfg.alpha < 2.0 && in_use < self.cfg.query_pages() {
                st.buffer.steal_page(page);
                return Ok((order, st));
            }
            if st.runs.live_bytes() + st.buffer.bytes() as u64 > self.cfg.ssd_capacity {
                return Err(MasmError::CacheFull {
                    cached: st.runs.live_bytes(),
                    capacity: self.cfg.ssd_capacity,
                });
            }
            let sealed = st.seal(self);
            drop((st, order));
            self.flush_batch(session, sealed)?;
        }
    }
}
