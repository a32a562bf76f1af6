//! Clustered table heap over a simulated device.
//!
//! * Records are clustered in primary-key order; a [`SparseIndex`] maps
//!   keys to logical pages.
//! * Logical pages are translated to physical byte offsets through a page
//!   map, so MaSM's in-place migration can replace chunks of pages without
//!   doubling storage (§3.2 "in-place migration", cases (i) and (ii)).
//! * A bulk load ([`TableHeap::bulk_load`]) packs the sorted records
//!   into **one reused buffer** (a [`PageChunk`] of 1 MiB) and writes
//!   each batch as soon as it is full: the table is never held in
//!   memory.
//! * Range scans ([`TableHeap::scan_range`]) read batches of up to
//!   1 MiB (the I/O size of §4.1) with
//!   asynchronous prefetch of the next batch, and locate batches **by
//!   key**, so a concurrent chunk-wise rewrite cannot make a scan skip or
//!   repeat records.
//! * Point reads ([`TableHeap::with_page_of`]) resolve `key → logical
//!   page → physical offset` and lend the page bytes to the caller's
//!   closure **in place**, all under one hold of the heap's read lock
//!   (and, while the closure runs, the device backend's): a rewrite
//!   that commits a chunk between the look-ups cannot misdirect the
//!   read, and nothing is copied. The closure must not block or do I/O.
//! * [`HeapRewriter`] implements chunked copy-forward rewrite: read a
//!   chunk of old pages into **one buffer** (a [`PageChunk`]: one device
//!   read per physically contiguous extent, straight into it), let the
//!   caller pack the merged records into another, write that one as it
//!   is, sequentially (preferring physical slots freed by
//!   already-committed chunks), and splice the page map and the index in
//!   place. The buffer of a committed chunk is the next chunk's read
//!   buffer, so a rewrite allocates its two chunk buffers once, however
//!   long the table. Peak extra space is one chunk, not a full table
//!   copy. A heap admits **one rewriter at a time**: a rewriter
//!   addresses pages by logical index, which another rewriter's splice
//!   would shift under it.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use masm_storage::{IoTicket, SessionHandle, SimDevice, StorageError, StorageResult, MIB};

use crate::index::SparseIndex;
use crate::page::{PageChunk, PageRef};
use crate::record::{Key, Record};

/// I/O size of range scans and bulk loads (1 MB in §4.1).
const SCAN_IO: u64 = MIB;

/// Tuning knobs of a table heap.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Page size in bytes (the paper's disk pages are 4 KB).
    pub page_size: usize,
    /// Pages per rewrite chunk during migration.
    pub rewrite_chunk_pages: usize,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            page_size: 4096,
            // 4 MiB chunks: large enough that the read/write head
            // alternation of a rewrite costs little relative to the
            // transfers (the paper's migration lands at ~2.3x a scan).
            rewrite_chunk_pages: 1024,
        }
    }
}

#[derive(Debug, Default)]
struct HeapState {
    /// Logical page -> physical byte offset.
    page_map: Vec<u64>,
    index: SparseIndex,
    record_count: u64,
}

#[derive(Debug, Default)]
struct Allocator {
    /// Next fresh physical offset (end of allocated space).
    next: u64,
    /// Freed physical page offsets available for reuse, kept sorted.
    free: Vec<u64>,
}

impl Allocator {
    /// Allocate `n` physically contiguous page slots of `page_size` bytes.
    /// Prefers a contiguous run from the free pool; falls back to fresh
    /// space at the end.
    fn alloc_contiguous(&mut self, n: usize, page_size: u64) -> u64 {
        if n == 0 {
            return self.next;
        }
        if self.free.len() >= n {
            // Find the first ascending run of length n with stride page_size.
            let mut run_start = 0usize;
            for i in 1..=self.free.len() {
                if i == self.free.len() || self.free[i] != self.free[i - 1] + page_size {
                    if i - run_start >= n {
                        let offset = self.free[run_start];
                        self.free.drain(run_start..run_start + n);
                        return offset;
                    }
                    run_start = i;
                }
            }
        }
        self.fresh(n, page_size)
    }

    /// Allocate `n` page slots of fresh space at the end.
    fn fresh(&mut self, n: usize, page_size: u64) -> u64 {
        let offset = self.next;
        self.next += n as u64 * page_size;
        offset
    }

    /// Give physical pages back: `offsets` is sorted and merged into
    /// the sorted free list, from the back, in place. A page can be
    /// free only once — a second free of it means two owners of one
    /// physical page, and the next allocation would hand it to both.
    fn free_pages(&mut self, mut offsets: Vec<u64>) {
        offsets.sort_unstable();
        let (mut old, mut new) = (self.free.len(), offsets.len());
        self.free.resize(old + new, 0);
        while new > 0 {
            let at = old + new - 1;
            if old > 0 && self.free[old - 1] >= offsets[new - 1] {
                old -= 1;
                self.free[at] = self.free[old];
            } else {
                new -= 1;
                self.free[at] = offsets[new];
            }
            assert!(
                self.free
                    .get(at + 1)
                    .is_none_or(|&above| self.free[at] < above),
                "physical page {} freed twice",
                self.free[at]
            );
        }
    }
}

/// Why [`TableHeap::bulk_load`] loaded nothing.
#[derive(Debug)]
pub enum BulkLoadError {
    /// The heap already has pages; nothing was written.
    NotEmpty {
        /// Logical pages the heap has.
        pages: usize,
    },
    /// A device write failed; the heap is still empty.
    Storage(StorageError),
}

impl std::fmt::Display for BulkLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BulkLoadError::NotEmpty { pages } => {
                write!(
                    f,
                    "bulk load into a heap of {pages} pages: only an empty heap loads"
                )
            }
            BulkLoadError::Storage(e) => write!(f, "bulk load: {e}"),
        }
    }
}

impl std::error::Error for BulkLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BulkLoadError::Storage(e) => Some(e),
            BulkLoadError::NotEmpty { .. } => None,
        }
    }
}

impl From<StorageError> for BulkLoadError {
    fn from(e: StorageError) -> Self {
        BulkLoadError::Storage(e)
    }
}

/// A clustered, page-mapped table heap.
pub struct TableHeap {
    dev: SimDevice,
    cfg: HeapConfig,
    state: RwLock<HeapState>,
    alloc: Mutex<Allocator>,
    /// Held by the one live [`HeapRewriter`], from
    /// [`TableHeap::rewriter_range`] to its `finish`/drop — the one
    /// lock here that is *meant* to be held across device I/O (a whole
    /// rewrite), hence a plain mutex and not a tracked one. A second
    /// rewriter waits for the first instead of splicing the page map at
    /// logical indices the first one's splices have shifted.
    rewrite: Mutex<()>,
}

impl std::fmt::Debug for TableHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.read();
        f.debug_struct("TableHeap")
            .field("pages", &st.page_map.len())
            .field("records", &st.record_count)
            .finish()
    }
}

impl TableHeap {
    /// Create an empty heap on `dev`.
    pub fn new(dev: SimDevice, cfg: HeapConfig) -> Self {
        TableHeap {
            dev,
            cfg,
            state: RwLock::new(HeapState::default()),
            alloc: Mutex::new(Allocator::default()),
            rewrite: Mutex::new(()),
        }
    }

    /// The allocator, about to hand out space: its fresh space is first
    /// raised behind every byte already on the device, so heaps that
    /// share a disk (each starts at offset 0) never write into each
    /// other's pages. Unless something else wrote the device (another
    /// heap, or writes of the heap before a crash that its log never
    /// recorded), `dev.len()` does not exceed `next` and placement does
    /// not change.
    fn allocator(&self) -> MutexGuard<'_, Allocator> {
        let written = self.dev.len().next_multiple_of(self.cfg.page_size as u64);
        let mut alloc = self.alloc.lock();
        alloc.next = alloc.next.max(written);
        alloc
    }

    /// The underlying device.
    pub fn device(&self) -> &SimDevice {
        &self.dev
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.cfg
    }

    /// Number of logical pages.
    pub fn num_pages(&self) -> usize {
        self.state.read().page_map.len()
    }

    /// Number of records.
    pub fn record_count(&self) -> u64 {
        self.state.read().record_count
    }

    /// Total data size in bytes (logical pages × page size).
    pub fn data_bytes(&self) -> u64 {
        self.num_pages() as u64 * self.cfg.page_size as u64
    }

    /// Bulk-load sorted records into an empty heap, packing pages to
    /// `fill` (0 < fill ≤ 1) of capacity. The records stream through
    /// one reused [`PageChunk`] of `SCAN_IO` (1 MiB) — the buffer a
    /// rewrite packs with — and each batch is written sequentially to
    /// fresh space as soon as it is full, so the table is never held
    /// in memory: a page is encoded once, in place, and copied once, to
    /// the device. The pages form one contiguous extent, and the page
    /// map and the index grow batch by batch.
    ///
    /// The heap's write lock is held throughout: a reader waits for the
    /// whole table, and a load into a heap that already has pages is
    /// refused ([`BulkLoadError::NotEmpty`]) before anything is written.
    /// A failed write leaves the heap empty.
    pub fn bulk_load(
        &self,
        session: &SessionHandle,
        records: impl IntoIterator<Item = Record>,
        fill: f64,
    ) -> Result<(), BulkLoadError> {
        assert!((0.0..=1.0).contains(&fill) && fill > 0.0);
        let page_size = self.cfg.page_size;
        let budget = ((page_size as f64) * fill) as usize;
        let batch_pages = SCAN_IO.div_ceil(page_size as u64) as usize;
        let mut st = self.state.write();
        if !st.page_map.is_empty() {
            return Err(BulkLoadError::NotEmpty {
                pages: st.page_map.len(),
            });
        }
        let mut batch =
            PageChunk::from_bytes(page_size, Vec::with_capacity(batch_pages * page_size));
        let (mut map, mut index) = (Vec::new(), SparseIndex::default());
        let mut count = 0u64;
        let mut last_key: Option<Key> = None;
        for r in records {
            assert!(
                last_key.is_none_or(|k| k <= r.key),
                "bulk_load requires sorted input"
            );
            last_key = Some(r.key);
            if batch.len() == batch_pages && batch.opens_page(r.encoded_len(), budget) {
                self.write_batch(session, &batch, &mut map, &mut index)?;
                batch.reset(0);
            }
            batch
                .push_within(&r, budget)
                .expect("record larger than page");
            count += 1;
        }
        if !batch.is_empty() {
            self.write_batch(session, &batch, &mut map, &mut index)?;
        }
        st.page_map = map;
        st.index = index;
        st.record_count = count;
        Ok(())
    }

    /// Write one batch of a bulk load to fresh space right behind the
    /// batches before it, and add its pages to `map` and `index`.
    fn write_batch(
        &self,
        session: &SessionHandle,
        batch: &PageChunk,
        map: &mut Vec<u64>,
        index: &mut SparseIndex,
    ) -> StorageResult<()> {
        let page_size = self.cfg.page_size as u64;
        let base = self.allocator().fresh(batch.len(), page_size);
        assert!(
            map.last().is_none_or(|&last| last + page_size == base),
            "a bulk load is one contiguous extent"
        );
        session.write(&self.dev, base, batch.as_bytes())?;
        map.extend((0..batch.len() as u64).map(|i| base + i * page_size));
        for page in batch.pages() {
            index.push(page.min_key().expect("non-empty page"));
        }
        Ok(())
    }

    /// Run `f` over the page that owns `key` — one random `page_size`
    /// read, the page bytes lent in place; `None` when the heap is
    /// empty. `key → logical page → physical offset` and the read all
    /// happen under **one** hold of the heap's read lock, so a
    /// concurrent rewrite can neither splice the page map between the
    /// two look-ups nor recycle the physical page before it is read
    /// (a look-up in one hold and a read in the next has both windows).
    ///
    /// `f` runs with the heap's read lock, the session and the device
    /// backend's read lock held: it must not block, do I/O or call back
    /// into this heap — look at the page, copy out what is needed,
    /// return.
    pub fn with_page_of<R>(
        &self,
        session: &SessionHandle,
        key: Key,
        f: impl FnOnce(PageRef<'_>) -> R,
    ) -> StorageResult<Option<R>> {
        let st = self.state.read();
        let Some(logical) = st.index.locate(key) else {
            return Ok(None);
        };
        let (phys, len) = (st.page_map[logical], self.cfg.page_size as u64);
        let found = session.read_with(&self.dev, phys, len, |bytes| f(PageRef::new(bytes)))?;
        Ok(Some(found))
    }

    /// Read-modify-write of the page that owns `key` — one random
    /// `page_size` read, then its writes; `None` when the heap is
    /// empty. `edit` gets the page's records, in key order, and must
    /// leave them in key order and within the neighbouring pages' key
    /// bounds; they are written back stamped `timestamp`, in place,
    /// split over fresh pages when they no longer fit, and the page is
    /// dropped when none are left. Resolution, read and writes all
    /// happen under **one** hold of the heap's write lock, so no
    /// concurrent rewrite can move the page in between. This is the
    /// in-place baseline's update (§2.2).
    pub fn edit_page_of<R>(
        &self,
        session: &SessionHandle,
        key: Key,
        timestamp: u64,
        edit: impl FnOnce(&mut Vec<Record>) -> R,
    ) -> StorageResult<Option<R>> {
        let page_size = self.cfg.page_size;
        let mut st = self.state.write();
        let Some(logical) = st.index.locate(key) else {
            return Ok(None);
        };
        let old_phys = st.page_map[logical];
        let mut records: Vec<Record> =
            session.read_with(&self.dev, old_phys, page_size as u64, |bytes| {
                PageRef::new(bytes).records().collect()
            })?;
        let old_count = records.len() as u64;
        let edited = edit(&mut records);

        let mut new_pages = PageChunk::new(page_size);
        new_pages.reset(timestamp);
        for r in &records {
            new_pages.push(r).expect("record larger than page");
        }
        let spans = new_pages.len();
        let mut phys_slots = vec![old_phys];
        if spans > 1 {
            let extra = self
                .allocator()
                .alloc_contiguous(spans - 1, page_size as u64);
            phys_slots.extend((0..spans as u64 - 1).map(|i| extra + i * page_size as u64));
        }
        for (page, &phys) in new_pages
            .as_bytes()
            .chunks_exact(page_size)
            .zip(&phys_slots)
        {
            session.write(&self.dev, phys, page)?;
        }
        let min_keys: Vec<Key> = new_pages.pages().filter_map(|p| p.min_key()).collect();
        st.index.splice(logical..logical + 1, &min_keys);
        st.page_map
            .splice(logical..=logical, phys_slots[..spans].iter().copied());
        if spans == 0 {
            self.alloc.lock().free_pages(vec![old_phys]);
        }
        st.record_count = st.record_count - old_count + records.len() as u64;
        Ok(Some(edited))
    }

    /// Start a record-granularity range scan of `[begin, end]`.
    pub fn scan_range(self: &Arc<Self>, session: SessionHandle, begin: Key, end: Key) -> RangeScan {
        RangeScan::new(Arc::clone(self), session, begin, end)
    }

    /// Restore heap metadata from durable records (crash recovery). The
    /// device already holds the page bytes; this reinstates the logical
    /// page map, sparse index, record count, and the allocator's
    /// high-water mark.
    pub fn restore(
        &self,
        page_map: Vec<u64>,
        min_keys: Vec<Key>,
        record_count: u64,
        alloc_next: u64,
    ) {
        assert_eq!(page_map.len(), min_keys.len());
        let mut st = self.state.write();
        st.page_map = page_map;
        st.index = SparseIndex::new(min_keys);
        st.record_count = record_count;
        drop(st);
        self.alloc.lock().next = alloc_next;
    }

    /// Replay a logged chunk splice (crash recovery). Mirrors what
    /// [`HeapRewriter::commit_chunk`] did before the crash, without any
    /// device I/O. A splice that does not fit the heap as rebuilt so
    /// far — a range past the page map, a key count that is not its
    /// page count, a record count below zero — changes nothing and
    /// says which check it failed.
    pub fn apply_splice(&self, commit: &ChunkCommit) -> Result<(), &'static str> {
        let page_size = self.cfg.page_size as u64;
        let mut st = self.state.write();
        let end = commit.at.checked_add(commit.n_old);
        let range = commit.at..end.ok_or("splice range overflows")?;
        if range.end > st.page_map.len() {
            return Err("splice range past the page map");
        }
        if commit.min_keys.len() != commit.n_new {
            return Err("splice key count is not its page count");
        }
        let record_count = i64::try_from(st.record_count)
            .ok()
            .and_then(|n| n.checked_add(commit.record_delta))
            .and_then(|n| u64::try_from(n).ok())
            .ok_or("splice record count below zero")?;
        let new_end = (commit.n_new as u64)
            .checked_mul(page_size)
            .and_then(|len| commit.base_phys.checked_add(len))
            .ok_or("splice pages past the device")?;
        let new_phys = (0..commit.n_new).map(|i| commit.base_phys + i as u64 * page_size);
        st.page_map.splice(range.clone(), new_phys);
        st.index.splice(range, &commit.min_keys);
        st.record_count = record_count;
        let mut alloc = self.alloc.lock();
        alloc.next = alloc.next.max(new_end);
        Ok(())
    }

    /// The page map and index minimum keys (durable metadata snapshot).
    pub fn metadata_snapshot(&self) -> (Vec<u64>, Vec<Key>, u64) {
        let st = self.state.read();
        (
            st.page_map.clone(),
            Vec::from(st.index.min_keys()),
            st.record_count,
        )
    }

    /// Start a chunked rewrite (migration) pass over the whole heap.
    pub fn rewriter(&self, session: SessionHandle) -> HeapRewriter<'_> {
        self.rewriter_range(session, 0, Key::MAX)
    }

    /// Start a chunked rewrite over the logical pages overlapping
    /// `[begin, end]` (partial migration, §3.5 "Improving Migration":
    /// "one can migrate a portion … of updates at a time to distribute
    /// the cost across multiple operations"). The pages own more keys
    /// than `[begin, end]` — see [`HeapRewriter::key_span`].
    ///
    /// Blocks while another rewriter of this heap is live: the page
    /// range is looked up only once this one has the heap to itself.
    pub fn rewriter_range(&self, session: SessionHandle, begin: Key, end: Key) -> HeapRewriter<'_> {
        let exclusive = self.rewrite.lock();
        let (cursor, end_cursor) = match self.state.read().index.page_range(begin, end) {
            Some((first, last)) => (first, last + 1),
            None => (0, 0),
        };
        HeapRewriter {
            heap: self,
            session,
            cursor,
            end_cursor,
            outstanding: 0,
            outstanding_records: 0,
            records_written: 0,
            spare: PageChunk::new(self.cfg.page_size),
            _exclusive: exclusive,
        }
    }
}

/// A record-level range scan with batched, prefetched reads.
///
/// The scan holds the device buffer of one I/O batch at a time and
/// decodes records straight out of it, a page at a time.
/// [`RangeScan::next_batch`] hands over one page's records, each with
/// the page's timestamp — MaSM's `Merge_data_updates` needs it during
/// in-place migration (§3.2); the `Iterator` impl yields the same
/// records one at a time.
pub struct RangeScan {
    heap: Arc<TableHeap>,
    session: SessionHandle,
    begin: Key,
    end: Key,
    /// Key from which the next batch starts; `None` when exhausted.
    next_from: Option<Key>,
    pending: Option<PendingBatch>,
    /// Device buffer of the current batch and the decode position in it.
    data: Vec<u8>,
    page_off: usize,
    slot: usize,
    error: Option<StorageError>,
}

struct PendingBatch {
    ticket: IoTicket,
    /// First key of the page after the batch (None = batch reaches the end
    /// of the overlap range).
    next_from: Option<Key>,
}

impl RangeScan {
    fn new(heap: Arc<TableHeap>, session: SessionHandle, begin: Key, end: Key) -> Self {
        RangeScan {
            heap,
            session,
            begin,
            end,
            next_from: Some(begin),
            pending: None,
            data: Vec::new(),
            page_off: 0,
            slot: 0,
            error: None,
        }
    }

    /// The device error that ended the scan early, if one did.
    pub fn error(&self) -> Option<&StorageError> {
        self.error.as_ref()
    }

    /// Hand that error over to a caller that reports it as its own; the
    /// scan stays ended.
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }

    /// Hand over the records of the next page in key order, each with
    /// the page's timestamp, decoded on demand from the device buffer;
    /// when the buffer is used up, first wait for the next I/O batch
    /// (prefetching the one after). What is left of the current page is
    /// skipped. `None` at the end of the range or after a device error
    /// ([`RangeScan::error`]).
    pub fn next_batch(&mut self) -> Option<impl Iterator<Item = (Record, u64)> + '_> {
        self.next_page()
            .then(|| std::iter::from_fn(|| self.decode_next()))
    }

    /// Issue an async read for the batch starting at `from`. Performed
    /// under the heap's read lock so a concurrent rewrite cannot recycle
    /// the physical pages out from under us.
    fn issue_batch(&self, from: Key) -> StorageResult<Option<PendingBatch>> {
        let heap = &self.heap;
        let st = heap.state.read();
        // Last logical page overlapping the range.
        let (Some(first), Some(last_overlap)) = (st.index.locate(from), st.index.locate(self.end))
        else {
            return Ok(None);
        };
        if first > last_overlap {
            return Ok(None);
        }
        let page_size = heap.cfg.page_size as u64;
        let max_pages = (SCAN_IO / page_size).max(1) as usize;
        let mut last = first;
        while last < last_overlap
            && last - first + 1 < max_pages
            && st.page_map[last + 1] == st.page_map[last] + page_size
        {
            last += 1;
        }
        let n = last - first + 1;
        let ticket =
            self.session
                .read_async(&heap.dev, st.page_map[first], n as u64 * page_size)?;
        let next_from = (last < last_overlap).then(|| st.index.min_key(last + 1));
        Ok(Some(PendingBatch { ticket, next_from }))
    }

    /// Issue the read of the batch at `next_from`, if there is one. A
    /// device error ends the scan and is kept for [`RangeScan::error`].
    fn prefetch(&mut self) {
        let Some(from) = self.next_from else { return };
        match self.issue_batch(from) {
            Ok(batch) => self.pending = batch,
            Err(e) => self.error = Some(e),
        }
        if self.pending.is_none() {
            self.next_from = None;
        }
    }

    /// Wait for the pending batch, make it the current one, and prefetch
    /// the next (overlapping its read with the decode of this one).
    fn advance(&mut self) -> bool {
        if self.pending.is_none() {
            self.prefetch();
        }
        let Some(batch) = self.pending.take() else {
            return false;
        };
        self.next_from = batch.next_from;
        self.data = self.session.wait(batch.ticket);
        (self.page_off, self.slot) = (0, 0);
        self.prefetch();
        true
    }

    /// Step to the next page, waiting for the next I/O batch when the
    /// device buffer is used up.
    fn next_page(&mut self) -> bool {
        let page_size = self.heap.cfg.page_size;
        (self.page_off, self.slot) = (self.page_off + page_size, 0);
        self.page_off + page_size <= self.data.len() || self.advance()
    }

    /// Decode the next in-range record of the current page.
    fn decode_next(&mut self) -> Option<(Record, u64)> {
        let page_size = self.heap.cfg.page_size;
        let page = PageRef::new(self.data.get(self.page_off..self.page_off + page_size)?);
        while self.slot < page.record_count() {
            let i = self.slot;
            self.slot += 1;
            if (self.begin..=self.end).contains(&page.key_at(i)) {
                return Some((page.record(i), page.timestamp()));
            }
        }
        None
    }
}

impl Iterator for RangeScan {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        loop {
            if let Some((record, _)) = self.decode_next() {
                return Some(record);
            }
            if !self.next_page() {
                return None;
            }
        }
    }
}

/// The durable description of one committed rewrite chunk: everything a
/// crash-recovery log needs to replay the page-map splice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkCommit {
    /// Logical index at which the splice happened.
    pub at: usize,
    /// Number of old logical pages replaced.
    pub n_old: usize,
    /// Physical base offset of the new pages (contiguous).
    pub base_phys: u64,
    /// Number of new pages.
    pub n_new: usize,
    /// Minimum key of each new page.
    pub min_keys: Vec<Key>,
    /// Change in total record count.
    pub record_delta: i64,
}

/// Chunked copy-forward rewriter (the I/O engine of MaSM's in-place
/// migration). A chunk is one buffer in and one buffer out:
///
/// ```ignore
/// let mut rw = heap.rewriter(session);
/// let mut new_pages = PageChunk::new(page_size);
/// while let Some(old_pages) = rw.next_chunk()? {
///     new_pages.reset(stamp);
///     merge(&old_pages, updates, &mut new_pages); // push / push_run
///     // The rewriter keeps the committed buffer to read the next
///     // chunk into; the one just read becomes the next output.
///     rw.commit_chunk(std::mem::replace(&mut new_pages, old_pages))?;
/// }
/// rw.finish();
/// ```
pub struct HeapRewriter<'a> {
    heap: &'a TableHeap,
    session: SessionHandle,
    /// Logical cursor into the *current* page map.
    cursor: usize,
    /// One past the last logical page to rewrite (tracks splices).
    end_cursor: usize,
    /// Pages handed out by the last `next_chunk` (awaiting commit).
    outstanding: usize,
    /// Records contained in the outstanding chunk's old pages.
    outstanding_records: u64,
    records_written: u64,
    /// The buffer of the last chunk committed: the next one is read
    /// into it.
    spare: PageChunk,
    /// The heap's rewrite lock, released when the rewriter goes.
    _exclusive: MutexGuard<'a, ()>,
}

impl HeapRewriter<'_> {
    /// Read the next chunk of old pages (sequential 1 MB-class reads,
    /// one per physically contiguous extent, all into one buffer).
    /// Returns `None` when every page of the rewrite has been handed out.
    pub fn next_chunk(&mut self) -> StorageResult<Option<PageChunk>> {
        assert_eq!(self.outstanding, 0, "commit_chunk before next_chunk");
        let heap = self.heap;
        let st = heap.state.read();
        if self.cursor >= self.end_cursor.min(st.page_map.len()) {
            return Ok(None);
        }
        let page_size = heap.cfg.page_size as u64;
        let chunk_pages = heap.cfg.rewrite_chunk_pages.max(1);
        let end = (self.cursor + chunk_pages).min(self.end_cursor.min(st.page_map.len()));
        let mut chunk = std::mem::replace(&mut self.spare, PageChunk::new(heap.cfg.page_size));
        let buf = chunk.read_buffer();
        let mut i = self.cursor;
        while i < end {
            let mut j = i;
            while j + 1 < end && st.page_map[j + 1] == st.page_map[j] + page_size {
                j += 1;
            }
            let len = (j - i + 1) as u64 * page_size;
            self.session
                .read_with(&heap.dev, st.page_map[i], len, |bytes| {
                    buf.extend_from_slice(bytes)
                })?;
            i = j + 1;
        }
        self.outstanding = end - self.cursor;
        self.outstanding_records = chunk.record_count();
        Ok(Some(chunk))
    }

    /// The key span owned by the pages of the chunk the last
    /// `next_chunk` handed out — with no chunk outstanding, by all the
    /// pages still to be rewritten: from the first page's minimum key
    /// (0 for logical page 0) to just below the minimum key of the
    /// page after the last (`Key::MAX` at the end of the heap). Every
    /// key in the span locates to one of those pages and no key
    /// outside it does, so these are exactly the keys whose updates a
    /// rewrite of the pages can claim to have absorbed.
    pub fn key_span(&self) -> (Key, Key) {
        let st = self.heap.state.read();
        let mins = st.index.min_keys();
        let end = match self.outstanding {
            0 => self.end_cursor,
            n => self.cursor + n,
        };
        let lo = match self.cursor {
            0 => 0,
            first => mins.get(first).copied().unwrap_or(Key::MAX),
        };
        (
            lo,
            mins.get(end)
                .map_or(Key::MAX, |&next| next.saturating_sub(1)),
        )
    }

    /// Write `new_pages`, as they are, in place of the pages returned by
    /// the last `next_chunk`: one sequential write into freed/fresh
    /// space, then splice the page map and the index and free the old
    /// slots. Minimum keys and record counts come from the page
    /// headers. Returns the splice description for durable logging.
    pub fn commit_chunk(&mut self, new_pages: PageChunk) -> StorageResult<ChunkCommit> {
        let heap = self.heap;
        let page_size = heap.cfg.page_size as u64;
        let n_old = self.outstanding;
        assert!(n_old > 0, "next_chunk before commit_chunk");
        assert_eq!(new_pages.page_size(), heap.cfg.page_size);
        let n_new = new_pages.len();

        // Allocate and write outside the state lock (fresh slots are not
        // visible to any reader yet).
        let base = heap.allocator().alloc_contiguous(n_new, page_size);
        if !new_pages.is_empty() {
            self.session.write(&heap.dev, base, new_pages.as_bytes())?;
        }
        let new_min_keys: Vec<Key> = new_pages
            .pages()
            .map(|p| p.min_key().expect("empty page in commit_chunk"))
            .collect();
        let new_records = new_pages.record_count();
        // next_chunk already read (and counted) the old pages.
        let old_records = self.outstanding_records;

        let mut st = heap.state.write();
        let old_range = self.cursor..self.cursor + n_old;
        let new_phys = (0..n_new).map(|i| base + i as u64 * page_size);
        let old_phys: Vec<u64> = st.page_map.splice(old_range.clone(), new_phys).collect();
        st.index.splice(old_range, &new_min_keys);
        st.record_count = st.record_count - old_records + new_records;
        drop(st);

        heap.alloc.lock().free_pages(old_phys);
        let commit = ChunkCommit {
            at: self.cursor,
            n_old,
            base_phys: base,
            n_new,
            min_keys: new_min_keys,
            record_delta: new_records as i64 - old_records as i64,
        };
        self.cursor += n_new;
        self.end_cursor = (self.end_cursor + n_new).saturating_sub(n_old);
        self.outstanding = 0;
        self.records_written += new_records;
        self.spare = new_pages;
        Ok(commit)
    }

    /// Total records written by committed chunks.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Finish the rewrite (asserts every chunk was committed).
    pub fn finish(self) {
        assert_eq!(self.outstanding, 0, "finish with uncommitted chunk");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use masm_storage::{DeviceProfile, SimClock};

    fn heap_with(n: u64) -> (Arc<TableHeap>, SessionHandle) {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let heap = Arc::new(TableHeap::new(dev, HeapConfig::default()));
        let session = SessionHandle::fresh(clock);
        // Even keys 0,2,4,... like the paper (odd keys free for inserts).
        heap.bulk_load(&session, (0..n).map(|i| Record::synthetic(i * 2, 92)), 1.0)
            .unwrap();
        (heap, session)
    }

    #[test]
    fn bulk_load_counts() {
        let (heap, _) = heap_with(1000);
        assert_eq!(heap.record_count(), 1000);
        assert!(heap.num_pages() >= 25);
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        let (heap, s) = heap_with(1000);
        let got: Vec<Key> = heap.scan_range(s, 0, u64::MAX).map(|r| r.key).collect();
        assert_eq!(got.len(), 1000);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(got[0], 0);
        assert_eq!(*got.last().unwrap(), 1998);
    }

    #[test]
    fn small_range_scan_is_exact() {
        let (heap, s) = heap_with(1000);
        let got: Vec<Key> = heap.scan_range(s, 100, 120).map(|r| r.key).collect();
        assert_eq!(
            got,
            vec![100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120]
        );
    }

    #[test]
    fn empty_range_scan() {
        let (heap, s) = heap_with(100);
        // Odd keys don't exist.
        let got: Vec<Key> = heap.scan_range(s, 51, 51).map(|r| r.key).collect();
        assert!(got.is_empty());
    }

    #[test]
    fn scan_reads_only_overlapping_pages() {
        let (heap, s) = heap_with(10_000);
        heap.device().reset_stats();
        let got: Vec<Key> = heap.scan_range(s, 5000, 5010).map(|r| r.key).collect();
        assert_eq!(got.len(), 6);
        let read = heap.device().stats().bytes_read;
        assert!(read <= 2 * 4096, "read {read} bytes");
    }

    #[test]
    fn scan_uses_large_sequential_io() {
        let (heap, s) = heap_with(50_000);
        heap.device().reset_stats();
        let n = heap.scan_range(s, 0, u64::MAX).count();
        assert_eq!(n, 50_000);
        let stats = heap.device().stats();
        // ~1282 pages -> with 1MB batches, ~6 reads, mostly sequential.
        assert!(stats.read_ops < 20, "{stats:?}");
        assert!(stats.sequential_ops + 1 >= stats.read_ops, "{stats:?}");
    }

    #[test]
    fn batches_carry_page_timestamps_and_cover_the_range() {
        let (heap, s) = heap_with(30_000);
        let first_page_max = heap.edit_page_of(&s, 0, 7, |records| records.last().unwrap().key);
        let first_page_max = first_page_max.unwrap().unwrap();
        let mut scan = heap.scan_range(s, 10, 50_000);
        let mut got = Vec::new();
        let mut batches = 0;
        while let Some(batch) = scan.next_batch() {
            got.extend(batch.map(|(r, ts)| (r.key, ts)));
            batches += 1;
        }
        assert!(scan.error().is_none());
        assert!(batches > 256, "one batch per page, {batches} batches");
        let keys: Vec<Key> = got.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, (5..=25_000).map(|i| i * 2).collect::<Vec<_>>());
        assert!(got
            .iter()
            .all(|&(k, ts)| ts == 7 * (k <= first_page_max) as u64));
    }

    #[test]
    fn read_fault_ends_the_scan_with_an_error() {
        let (heap, s) = heap_with(50_000);
        let mut scan = heap.scan_range(s, 0, u64::MAX);
        assert!(scan.next().is_some());
        // The first batch is in hand and the second already read; the
        // third cannot be.
        heap.device().inject_read_fault();
        let got = 1 + scan.by_ref().count();
        assert!(
            got < 50_000,
            "a faulted device cannot serve the whole table"
        );
        assert!(got > 15_000, "both buffered batches are served: {got}");
        assert!(matches!(scan.error(), Some(StorageError::Faulted(_))));
        assert!(scan.next().is_none());
    }

    #[test]
    fn read_write_page_roundtrip() {
        let (heap, s) = heap_with(100);
        assert_eq!(heap.edit_page_of(&s, 0, 42, |_| ()).unwrap(), Some(()));
        let stamp = heap.with_page_of(&s, 0, |p| p.timestamp()).unwrap();
        assert_eq!(stamp, Some(42));
    }

    /// One read and one write, under one hold of the heap lock.
    #[test]
    fn replace_page_records_modify() {
        let (heap, s) = heap_with(100);
        heap.device().reset_stats();
        let edited = heap.edit_page_of(&s, 0, 9, |records| records[0].payload = vec![0xFF; 92]);
        assert_eq!(edited.unwrap(), Some(()));
        let stats = heap.device().stats();
        assert_eq!((stats.read_ops, stats.write_ops), (1, 1), "{stats:?}");
        let back = heap.with_page_of(&s, 0, |p| (p.record(0), p.timestamp()));
        let (record, stamp) = back.unwrap().unwrap();
        assert_eq!((record.payload, stamp), (vec![0xFF; 92], 9));
        assert_eq!(heap.record_count(), 100);
    }

    #[test]
    fn replace_page_records_split_on_insert() {
        let (heap, s) = heap_with(100);
        let pages_before = heap.num_pages();
        // Insert the odd keys inside the first page's key range so the
        // split pages stay within the neighbouring pages' bounds.
        let (old, new) = heap
            .edit_page_of(&s, 0, 1, |records| {
                let (old, max) = (records.len(), records.last().unwrap().key);
                records.extend((1..max).step_by(2).map(|k| Record::synthetic(k, 92)));
                records.sort_by_key(|r| r.key);
                (old as u64, records.len() as u64)
            })
            .unwrap()
            .unwrap();
        assert!(heap.num_pages() > pages_before, "the page split");
        assert_eq!(heap.record_count(), 100 - old + new);
        // All records still readable, in order.
        let got: Vec<Key> = heap.scan_range(s, 0, u64::MAX).map(|r| r.key).collect();
        assert_eq!(got.len() as u64, 100 - old + new);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rewriter_identity_preserves_data() {
        let (heap, s) = heap_with(5000);
        let before: Vec<Key> = heap
            .scan_range(s.clone(), 0, u64::MAX)
            .map(|r| r.key)
            .collect();
        let mut rw = heap.rewriter(s.clone());
        while let Some(pages) = rw.next_chunk().unwrap() {
            rw.commit_chunk(pages).unwrap();
        }
        rw.finish();
        let after: Vec<Key> = heap.scan_range(s, 0, u64::MAX).map(|r| r.key).collect();
        assert_eq!(before, after);
        assert_eq!(heap.record_count(), 5000);
    }

    #[test]
    fn rewriter_can_grow_and_shrink_chunks() {
        let (heap, s) = heap_with(2000);
        // Drop every record with key % 4 == 0 and add odd keys: net growth.
        let mut rw = heap.rewriter(s.clone());
        let mut new_pages = PageChunk::new(heap.config().page_size);
        while let Some(pages) = rw.next_chunk().unwrap() {
            let mut records: Vec<Record> = pages.pages().flat_map(|p| p.records()).collect();
            let lo = records.first().unwrap().key;
            let hi = records.last().unwrap().key;
            records.retain(|r| r.key % 4 != 0);
            let mut inserts: Vec<Record> = (lo..=hi)
                .filter(|k| k % 2 == 1)
                .map(|k| Record::synthetic(k, 92))
                .collect();
            records.append(&mut inserts);
            records.sort_by_key(|r| r.key);
            new_pages.reset(0);
            for r in &records {
                new_pages.push(r).unwrap();
            }
            rw.commit_chunk(std::mem::replace(&mut new_pages, pages))
                .unwrap();
        }
        rw.finish();
        let got: Vec<Key> = heap.scan_range(s, 0, u64::MAX).map(|r| r.key).collect();
        assert!(got.iter().all(|k| k % 4 != 0));
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        // 2000 evens: 1000 survive (k%4==2); odds inserted between lo..hi
        // of each chunk — roughly 2000 of them.
        assert!(got.len() > 2500, "got {}", got.len());
    }

    #[test]
    fn rewriter_reuses_freed_space() {
        let (heap, s) = heap_with(20_000);
        let bytes_before = heap.alloc.lock().next;
        let mut rw = heap.rewriter(s);
        while let Some(pages) = rw.next_chunk().unwrap() {
            rw.commit_chunk(pages).unwrap();
        }
        rw.finish();
        let bytes_after = heap.alloc.lock().next;
        // Identity rewrite must not grow the file by more than ~2 chunks.
        let chunk_bytes = (heap.config().rewrite_chunk_pages * heap.config().page_size) as u64;
        assert!(
            bytes_after <= bytes_before + 2 * chunk_bytes,
            "before={bytes_before} after={bytes_after}"
        );
    }

    #[test]
    fn allocator_reuses_freed_pages_in_address_order() {
        const P: u64 = 4096;
        let mut a = Allocator::default();
        assert_eq!(a.alloc_contiguous(4, P), 0);
        assert_eq!(a.alloc_contiguous(2, P), 4 * P);
        // Freed out of order, in two calls: one sorted list.
        a.free_pages(vec![3 * P, P]);
        a.free_pages(vec![5 * P, 0, 2 * P]);
        assert_eq!(a.free, [0, P, 2 * P, 3 * P, 5 * P]);
        // The first contiguous run that is long enough, else fresh space.
        assert_eq!(a.alloc_contiguous(3, P), 0);
        assert_eq!(a.free, [3 * P, 5 * P]);
        assert_eq!(a.alloc_contiguous(2, P), 6 * P, "3 and 5 are not adjacent");
        assert_eq!(a.alloc_contiguous(1, P), 3 * P);
        a.free_pages(vec![4 * P]);
        assert_eq!(a.alloc_contiguous(2, P), 4 * P);
        assert!(a.free.is_empty());
        assert_eq!(a.next, 8 * P);
        a.free_pages(Vec::new());
        assert!(a.free.is_empty());
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn a_double_free_is_caught_against_the_list() {
        let mut a = Allocator::default();
        a.alloc_contiguous(4, 4096);
        a.free_pages(vec![4096, 8192]);
        a.free_pages(vec![0, 8192]);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn a_double_free_is_caught_within_one_call() {
        let mut a = Allocator::default();
        a.alloc_contiguous(4, 4096);
        a.free_pages(vec![8192, 0, 8192]);
    }

    #[test]
    fn key_span_is_what_the_pages_own() {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let cfg = HeapConfig {
            rewrite_chunk_pages: 2,
            ..HeapConfig::default()
        };
        let heap = TableHeap::new(dev, cfg);
        let s = SessionHandle::fresh(clock);
        heap.bulk_load(&s, (0..500).map(|i| Record::synthetic(i * 2, 92)), 1.0)
            .unwrap();
        let mins = heap.metadata_snapshot().1;
        let last = mins.len() - 1;
        assert!(last > 4);

        // Before the first chunk: every page of the rewrite. The first
        // and the last page reach to the ends of the keyspace.
        let span = |begin, end| heap.rewriter_range(s.clone(), begin, end).key_span();
        assert_eq!(heap.rewriter(s.clone()).key_span(), (0, Key::MAX));
        assert_eq!(span(mins[3] + 1, mins[3] + 1), (mins[3], mins[4] - 1));
        assert_eq!(span(5, mins[1]), (0, mins[2] - 1));
        assert_eq!(span(mins[last] + 1, Key::MAX), (mins[last], Key::MAX));

        // With a chunk handed out: that chunk's pages; the chunks tile
        // the rewrite's span.
        let mut rw = heap.rewriter_range(s.clone(), mins[1], mins[4]);
        assert_eq!(rw.key_span(), (mins[1], mins[5] - 1));
        let pages = rw.next_chunk().unwrap().unwrap();
        assert_eq!(rw.key_span(), (mins[1], mins[3] - 1));
        rw.commit_chunk(pages).unwrap();
        let pages = rw.next_chunk().unwrap().unwrap();
        assert_eq!(rw.key_span(), (mins[3], mins[5] - 1));
        rw.commit_chunk(pages).unwrap();
        assert!(rw.next_chunk().unwrap().is_none());
        rw.finish();
    }

    /// Two rewriters over one heap.
    /// Splices shift logical page indices, so the second must not look
    /// its range up, let alone commit, while the first is mid-chunk:
    /// without the rewrite lock B's commits below move the pages A read
    /// and A's commit lands on B's.
    #[test]
    fn a_second_rewriter_waits_for_the_first() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;

        let n = 20_000u64;
        let (heap, s) = heap_with(n);
        let pages_before = heap.num_pages();
        let mid = n; // keys are 0, 2, … 2n − 2
        let a_finished = Arc::new(AtomicBool::new(false));
        let (at_the_door, arrived) = mpsc::channel();

        let mut a = heap.rewriter_range(s.clone(), mid, Key::MAX);
        let chunk = a.next_chunk().unwrap().unwrap();

        // B rewrites the lower half onto twice as many pages.
        let b = {
            let (heap, s, a_finished) = (Arc::clone(&heap), s.clone(), Arc::clone(&a_finished));
            std::thread::spawn(move || {
                at_the_door.send(()).unwrap();
                let mut b = heap.rewriter_range(s, 0, mid - 1);
                assert!(
                    a_finished.load(Ordering::SeqCst),
                    "B got the heap while A was mid-chunk"
                );
                let page_size = heap.config().page_size;
                while let Some(pages) = b.next_chunk().unwrap() {
                    let halves = pages.pages().flat_map(|p| {
                        let records: Vec<Record> = p.records().collect();
                        let (left, right) = records.split_at(records.len() / 2);
                        [left.to_vec(), right.to_vec()]
                    });
                    let new_pages = halves
                        .filter(|records| !records.is_empty())
                        .flat_map(|records| {
                            let mut page = Page::new(page_size);
                            assert!(records.iter().all(|r| page.append(r)));
                            page.into_bytes()
                        })
                        .collect();
                    b.commit_chunk(PageChunk::from_bytes(page_size, new_pages))
                        .unwrap();
                }
                b.finish();
            })
        };

        // A commits the chunk it read, unchanged, then the rest.
        arrived.recv().unwrap();
        a.commit_chunk(chunk).unwrap();
        while let Some(pages) = a.next_chunk().unwrap() {
            a.commit_chunk(pages).unwrap();
        }
        a_finished.store(true, Ordering::SeqCst);
        a.finish();
        b.join().unwrap();

        assert!(
            heap.num_pages() > pages_before + pages_before / 3,
            "B's rewrite is in the heap: {pages_before} -> {} pages",
            heap.num_pages()
        );
        assert_eq!(heap.record_count(), n);
        let got: Vec<Key> = heap.scan_range(s, 0, Key::MAX).map(|r| r.key).collect();
        assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn with_page_of_lends_the_owning_page_at_read_page_cost() {
        let (owned, s_owned) = heap_with(1000);
        let (lent, s_lent) = heap_with(1000);
        let (page_map, min_keys, _) = owned.metadata_snapshot();
        for key in [0, 500, 501, 1998, 5000] {
            // The reference: a plain read of the page the index names.
            let logical = min_keys.partition_point(|&min| min <= key) - 1;
            let bytes = s_owned.read(owned.device(), page_map[logical], 4096);
            let page = Page::from_bytes(bytes.unwrap());
            let want = page.find(key).ok().map(|slot| page.view().record(slot));
            let got = lent
                .with_page_of(&s_lent, key, |p| {
                    assert_eq!(p.timestamp(), page.timestamp());
                    p.find(key).ok().map(|slot| p.record(slot))
                })
                .unwrap()
                .expect("non-empty heap");
            assert_eq!(got, want, "key {key}");
            assert_eq!(got.is_some(), key % 2 == 0 && key < 2000);
            assert_eq!(s_lent.now(), s_owned.now(), "same session time");
        }
        assert_eq!(lent.device().stats(), owned.device().stats());

        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let empty = TableHeap::new(dev, HeapConfig::default());
        let s = SessionHandle::fresh(clock);
        assert_eq!(empty.with_page_of(&s, 7, |_| ()).unwrap(), None);
        assert_eq!(empty.edit_page_of(&s, 7, 1, |_| ()).unwrap(), None);
    }

    #[test]
    fn locate_finds_key_page() {
        let (heap, s) = heap_with(1000);
        let bounds = heap.with_page_of(&s, 500, |p| (p.min_key(), p.max_key()));
        let (min, max) = bounds.unwrap().unwrap();
        assert!(min.unwrap() <= 500 && max.unwrap() >= 500);
    }
}
