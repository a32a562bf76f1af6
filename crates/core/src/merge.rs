//! The merge operators of Figures 6 and 7, as Rust iterators.
//!
//! The paper builds a Volcano-style operator tree replacing
//! `Table_range_scan`:
//!
//! ```text
//! Merge_data_updates           -- outer join of data and updates
//!  ├── Table_range_scan        -- masm_pagestore::RangeScan
//!  └── Merge_updates           -- k-way merge of sorted update streams
//!       ├── Run_scan ×k        -- crate::run::RunScan
//!       └── Mem_scan           -- sorted snapshot of the update buffer
//! ```
//!
//! Rust iterators *are* Volcano operators (pull-based `next()`), so the
//! tree is literally a composition of iterators here — with one
//! difference from the textbook: the data edge carries **batches**. The
//! join takes one heap page's records at a time and moves every run of
//! them that no update touches in one loop, so nothing per-record
//! (clock reads, histogram updates, locks) is left on the scan's
//! `next()`, and a record is consumed while its page is still in the
//! CPU cache.
//!
//! **Idempotence note.** `Merge_updates` folds all updates to the same
//! key into one (e.g. delete + insert ⇒ replace). During migration a
//! page's timestamp may fall *between* two folded updates; applying the
//! folded result again is still correct because every folded form is a
//! state-setter (replace/delete/modify-to-value), i.e. idempotent — the
//! paper relies on the same property for crash-redo of migrations.
//!
//! Run-to-run merges (2-pass materialization, §3.5 compaction) no
//! longer flow through these operators unconditionally: they are
//! planned first. [`compact_block_runs`] asks the
//! [`masm_blockrun::plan::MergePlanner`] which whole blocks overlap no
//! other input and relinks those verbatim — CRC-checked, never decoded
//! — falling back to the k-way fold only for genuinely overlapping key
//! ranges.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::iter::Peekable;
use std::sync::Arc;

use masm_blockrun::{BlockRunMeta, BloomFilter, MergePlanner, RunBuilder, Segment};
use masm_pagestore::{Key, PageChunk, RangeScan, Record, RecordTooLarge, Schema};
use masm_storage::{IoTicket, MergeReport, SessionHandle, SimDevice, StorageError};

use crate::config::MasmConfig;
use crate::error::MasmResult;
use crate::run::{append_update, RunScan, ScanFailures, SortedRun};
use crate::ts::Timestamp;
use crate::update::{UpdateOp, UpdateRecord};

/// Type-erased sorted update stream (sorted by `(key, ts)`).
pub type UpdateStream = Box<dyn Iterator<Item = UpdateRecord> + Send>;

/// The current update of one input, ordered by `(key, ts)` and then by
/// input index — the merge order.
struct Head {
    update: UpdateRecord,
    src: usize,
}

impl Head {
    fn rank(&self) -> (Key, Timestamp, usize) {
        (self.update.key, self.update.ts, self.src)
    }
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for Head {}
impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// Raw k-way merge of sorted update streams: yields every update in
/// `(key, ts)` order without folding. Used directly when materializing a
/// 2-pass run (folding there is a separate, guarded step — see
/// [`fold_duplicates`]).
pub struct KWayUpdates {
    streams: Vec<UpdateStream>,
    /// Min-heap of every live input's current update.
    heads: BinaryHeap<Reverse<Head>>,
}

impl KWayUpdates {
    /// Merge `streams`, each sorted by `(key, ts)`.
    pub fn new(mut streams: Vec<UpdateStream>) -> Self {
        let heads = streams
            .iter_mut()
            .enumerate()
            .filter_map(|(src, stream)| {
                let update = stream.next()?;
                Some(Reverse(Head { update, src }))
            })
            .collect();
        KWayUpdates { streams, heads }
    }

    /// Key of the next update without consuming it.
    pub fn peek_key(&self) -> Option<Key> {
        self.heads.peek().map(|Reverse(head)| head.update.key)
    }
}

impl Iterator for KWayUpdates {
    type Item = UpdateRecord;

    fn next(&mut self) -> Option<UpdateRecord> {
        let mut top = self.heads.peek_mut()?;
        Some(match self.streams[top.0.src].next() {
            // Replace the top in place: one sift when `top` drops.
            Some(next) => std::mem::replace(&mut top.0.update, next),
            None => PeekMut::pop(top).0.update,
        })
    }
}

/// `Merge_updates`: k-way merge of sorted update streams, folding all
/// updates to one key (visible at `as_of`) into a single update.
pub struct MergeUpdates {
    inner: KWayUpdates,
    schema: Schema,
    as_of: Timestamp,
}

impl MergeUpdates {
    /// Merge `streams` (each sorted by `(key, ts)`), keeping only updates
    /// with `ts ≤ as_of`.
    pub fn new(streams: Vec<UpdateStream>, schema: Schema, as_of: Timestamp) -> Self {
        MergeUpdates {
            inner: KWayUpdates::new(streams),
            schema,
            as_of,
        }
    }
}

impl Iterator for MergeUpdates {
    type Item = UpdateRecord;

    fn next(&mut self) -> Option<UpdateRecord> {
        loop {
            let first = self.inner.next()?;
            let key = first.key;
            // Collect every update for this key (streams are key-sorted,
            // so they are all at the heap front), in timestamp order
            // thanks to the heap's (key, ts) ordering.
            let mut merged = (first.ts <= self.as_of).then_some(first);
            while self.inner.peek_key() == Some(key) {
                let nxt = self.inner.next().expect("peeked");
                if nxt.ts > self.as_of {
                    continue;
                }
                merged = Some(match merged {
                    Some(cur) => cur.merge_with_later(&nxt, &self.schema),
                    None => nxt,
                });
            }
            if merged.is_some() {
                return merged;
            }
            // Every update for this key was invisible; try the next key.
        }
    }
}

/// Fold duplicate updates for run materialization (§3.5 "Handling
/// Skews"): consecutive same-key updates `(t1, t2)` merge only when
/// `guard(t1, t2)` confirms no concurrent query timestamp `t` satisfies
/// `t1 < t ≤ t2`.
pub fn fold_duplicates(
    sorted: Vec<UpdateRecord>,
    schema: &Schema,
    guard: impl Fn(Timestamp, Timestamp) -> bool,
) -> Vec<UpdateRecord> {
    let mut out: Vec<UpdateRecord> = Vec::with_capacity(sorted.len());
    for u in sorted {
        match out.last_mut() {
            Some(prev) if prev.key == u.key && guard(prev.ts, u.ts) => {
                *prev = prev.merge_with_later(&u, schema);
            }
            _ => out.push(u),
        }
    }
    out
}

/// Union of the input runs' bloom filters, when every input has one. A
/// valid (over-approximating) filter for the compacted output: its key
/// set is a subset of the inputs' union. Unequal filter sizes fold to
/// the smallest input's power-of-two geometry. Packing k runs' keys
/// into one input's bits raises the false-positive rate — at fill 0.75
/// and 7 probes the FPR is ≈13%, still rejecting ~87% of absent-key
/// probes for a few KB — so the union is kept until it approaches
/// saturation (fill ≥ 0.95, FPR ≈ 0.7), past which it answers "maybe"
/// for nearly every probe while still costing resident memory.
fn union_input_blooms(inputs: &[Arc<SortedRun>]) -> Option<BloomFilter> {
    let mut blooms = inputs.iter().map(|r| r.meta.bloom.as_ref());
    let first = blooms.next()??.clone();
    let union = blooms.try_fold(first, |acc, b| acc.union(b?))?;
    (union.fill_ratio() < 0.95).then_some(union)
}

/// Widest single read used when relocating *Move* segments: chunks are
/// block-aligned and at most this many bytes.
const MOVE_READ_BYTES: u64 = 1 << 20;

/// Independent *Move*-segment chunk reads a compaction keeps in flight
/// on the SSD (§3.7 overlap).
const DEVICE_QUEUE_DEPTH: usize = 4;

/// One contiguous, block-aligned byte range of a *Move* segment.
/// Chunks are precomputed for the whole plan so their reads can be
/// issued asynchronously ahead of consumption, up to
/// [`DEVICE_QUEUE_DEPTH`].
#[derive(Debug, Clone, Copy)]
struct MoveChunk {
    /// Input run index.
    run: usize,
    /// Zone (block) range covered by this chunk.
    zone_lo: usize,
    zone_hi: usize,
    /// Absolute device offset of the first block.
    offset: u64,
    /// Total bytes spanned.
    span: u64,
}

/// Zero-decode compaction of block runs: the plan → execute pipeline.
///
/// The [`MergePlanner`] partitions the inputs' key space from their
/// zone maps alone. *Move* segments — blocks whose key range overlaps
/// no other input — are copied as raw verified bytes (CRC checked,
/// never delta-decoded) via [`RunBuilder::append_raw_block`]. Their
/// chunked reads execute **in parallel**: up to four chunk reads are
/// kept in flight (issued ahead, across consecutive segments), and
/// `RunBuilder` consumes them strictly in plan order — the SSD overlaps
/// the transfers while the output stays byte-identical to the serial
/// execution. *Merge* segments are decoded through [`RunScan`]s (with
/// the prefetch depth driven by the plan's fan-in, so a k-way merge
/// keeps ≈k reads in flight) and **streamed** entry-at-a-time through
/// [`KWayUpdates`] into the builder, optionally collapsing duplicate
/// updates under `fold_guard` (§3.5 "Handling Skews": a pair folds
/// only when no concurrent query timestamp separates it). A merge
/// segment never materializes its output: the in-memory working set is
/// one head per input stream, one pending fold candidate, and the
/// builder's open block — `report.peak_merge_entries` records the
/// maximum, which §3.3's memory bound requires to stay independent of
/// the segment's total entry count.
///
/// Returns the built (un-rebased, un-written) output run metadata and
/// bytes plus the [`MergeReport`]; the caller allocates SSD space,
/// rebases, and writes — exactly like `build_run`. On fully disjoint
/// inputs `report.bytes_decoded == 0`: compaction cost is proportional
/// to overlap, not input size.
pub fn compact_block_runs(
    session: &SessionHandle,
    ssd: &SimDevice,
    cfg: &MasmConfig,
    schema: &Schema,
    inputs: &[Arc<SortedRun>],
    fold_guard: Option<&dyn Fn(Timestamp, Timestamp) -> bool>,
) -> MasmResult<(BlockRunMeta, Vec<u8>, MergeReport)> {
    let metas: Vec<&BlockRunMeta> = inputs.iter().map(|r| r.meta.as_ref()).collect();
    let plan = MergePlanner::new(&metas).plan();
    let depth = cfg.merge_prefetch_depth(plan.fan_in);
    let mut builder = RunBuilder::new(cfg.blockrun_config());
    let failures = ScanFailures::default();
    let mut report = MergeReport {
        inputs: inputs.len() as u64,
        fan_in: plan.fan_in as u64,
        ..MergeReport::default()
    };

    // Blocks of one run are laid out back to back, so a move segment is
    // one contiguous byte range: precompute its wide chunks
    // (block-aligned, ≤ MOVE_READ_BYTES) for the *whole* plan up front.
    // `seg_chunks[i]` is the chunk index range owned by segment `i`
    // (empty for merge segments).
    let mut chunks: Vec<MoveChunk> = Vec::new();
    let mut seg_chunks: Vec<std::ops::Range<usize>> = Vec::with_capacity(plan.segments.len());
    for seg in &plan.segments {
        let lo = chunks.len();
        if let Segment::Move { run, blocks } = seg {
            let meta = &inputs[*run].meta;
            let mut idx = blocks.start;
            while idx < blocks.end {
                let first = meta.zones[idx];
                let mut end = idx + 1;
                while end < blocks.end {
                    let z = meta.zones[end];
                    debug_assert_eq!(
                        z.offset,
                        meta.zones[end - 1].offset + meta.zones[end - 1].len as u64,
                        "blocks of one run are contiguous"
                    );
                    if z.offset + z.len as u64 - first.offset > MOVE_READ_BYTES {
                        break;
                    }
                    end += 1;
                }
                let last = meta.zones[end - 1];
                chunks.push(MoveChunk {
                    run: *run,
                    zone_lo: idx,
                    zone_hi: end,
                    offset: meta.base + first.offset,
                    span: last.offset + last.len as u64 - first.offset,
                });
                idx = end;
            }
        }
        seg_chunks.push(lo..chunks.len());
    }

    // The move pipeline: chunk reads are issued asynchronously ahead of
    // consumption, keeping up to `DEVICE_QUEUE_DEPTH` in flight — also
    // across a merge segment, so the device overlaps the next move
    // segment's transfers with the merge's decode reads. Tickets are
    // awaited strictly in chunk order, so blocks reach the builder in
    // plan order regardless of completion order.
    let mut inflight: VecDeque<IoTicket> = VecDeque::new();
    let mut next_issue = 0usize;

    for (seg_idx, seg) in plan.segments.iter().enumerate() {
        match seg {
            Segment::Move { .. } => {
                for ci in seg_chunks[seg_idx].clone() {
                    while next_issue <= ci
                        || (inflight.len() < DEVICE_QUEUE_DEPTH && next_issue < chunks.len())
                    {
                        let c = chunks[next_issue];
                        inflight.push_back(session.read_async(ssd, c.offset, c.span)?);
                        next_issue += 1;
                    }
                    let raw = session.wait(inflight.pop_front().expect("issued ahead"));
                    let c = chunks[ci];
                    let meta = &inputs[c.run].meta;
                    let first_off = meta.zones[c.zone_lo].offset;
                    for zone in &meta.zones[c.zone_lo..c.zone_hi] {
                        let lo = (zone.offset - first_off) as usize;
                        builder.append_raw_block(&raw[lo..lo + zone.len as usize], zone)?;
                        report.blocks_moved += 1;
                        report.bytes_moved += zone.len as u64;
                    }
                }
            }
            Segment::Merge {
                min_key,
                max_key,
                parts,
            } => {
                // Merge inputs bypass the block cache: each block is
                // read exactly once and the input runs are deleted
                // right after, so caching them would only evict
                // genuinely hot query blocks.
                let streams: Vec<UpdateStream> = parts
                    .iter()
                    .map(|(run_idx, _)| {
                        Box::new(
                            RunScan::with_cache(
                                ssd.clone(),
                                session.clone(),
                                Arc::clone(&inputs[*run_idx]),
                                None,
                                *min_key,
                                *max_key,
                            )
                            .with_prefetch_depth(depth)
                            .reporting_to(failures.clone()),
                        ) as UpdateStream
                    })
                    .collect();
                for (run_idx, range) in parts {
                    for z in &inputs[*run_idx].meta.zones[range.clone()] {
                        report.blocks_merged += 1;
                        report.bytes_decoded += z.len as u64;
                    }
                }
                // Stream the k-way fold entry-at-a-time into the
                // builder (§3.3): the segment's merged output is never
                // materialized. `pending` holds the one candidate a
                // later same-key update may still fold into (same
                // consecutive-pair semantics as [`fold_duplicates`]);
                // it is appended the moment the key advances.
                let heads = parts.len();
                let mut pending: Option<UpdateRecord> = None;
                for next in KWayUpdates::new(streams) {
                    pending = Some(match pending.take() {
                        Some(cur)
                            if cur.key == next.key
                                && fold_guard.is_some_and(|g| g(cur.ts, next.ts)) =>
                        {
                            cur.merge_with_later(&next, schema)
                        }
                        Some(cur) => {
                            append_update(&mut builder, &cur);
                            next
                        }
                        None => next,
                    });
                    let live = (heads + 1 + builder.open_block_entries()) as u64;
                    report.peak_merge_entries = report.peak_merge_entries.max(live);
                }
                if let Some(cur) = pending {
                    append_update(&mut builder, &cur);
                }
                // A scan that failed ended its stream early: a merge
                // that lost updates must never reach the caller, who
                // would install it in place of its inputs.
                failures.check()?;
            }
        }
    }

    report.entries_out = builder.entry_count();
    let (meta, bytes) = if builder.raw_blocks() == 0 {
        // Every key passed through the builder: an exact bloom filter.
        builder.finish()
    } else {
        // Moved keys were never observed; the union of the input
        // filters (when geometries align) covers them.
        let bloom = union_input_blooms(inputs);
        builder.finish_with_bloom(bloom)
    };
    Ok((meta, bytes, report))
}

/// `Merge_data_updates`: the outer join of the table range scan and the
/// merged update stream.
///
/// * data-only keys pass through;
/// * update-only keys materialize (insert/replace) or vanish
///   (delete/modify of a non-existent record);
/// * matching keys apply the update — unless the page's timestamp shows
///   the update was already migrated into the page (`u.ts ≤ page_ts`).
///
/// The join works on a batch of data at a time. Over a heap
/// [`RangeScan`], [`MergeDataUpdates::refill`] joins one page with the
/// updates that fall inside it and [`MergeDataUpdates::pop`] hands the
/// results out; over a plain iterator of `(record, page timestamp)`
/// pairs the join is itself an iterator that refills from a chunk of
/// its input.
pub struct MergeDataUpdates<D, U> {
    data: D,
    join: Join<U>,
    /// Joined records not handed out yet.
    out: VecDeque<Record>,
    /// Both sides are exhausted, or the data side failed.
    done: bool,
}

/// The update side of the outer join, and the join itself.
struct Join<U> {
    updates: U,
    schema: Schema,
    /// The next update. It is pulled only once the data record it will
    /// be compared with is in hand: the order in which the two sides
    /// touch their devices is part of the simulated timeline.
    next: Option<UpdateRecord>,
}

impl<U: Iterator<Item = UpdateRecord>> Join<U> {
    fn peek_key(&mut self) -> Option<Key> {
        if self.next.is_none() {
            self.next = self.updates.next();
        }
        self.next.as_ref().map(|u| u.key)
    }

    /// Join a key-ordered batch of `(record, page timestamp)` pairs —
    /// its first and the rest — with every update up to its last key.
    fn batch(
        &mut self,
        (mut record, mut page_ts): (Record, u64),
        mut rest: impl Iterator<Item = (Record, u64)>,
        emit: &mut impl FnMut(Record),
    ) {
        loop {
            let bound = self.peek_key();
            // The run of records below the next update passes through.
            while bound.is_none_or(|key| record.key < key) {
                emit(record);
                match rest.next() {
                    Some(next) => (record, page_ts) = next,
                    None => return,
                }
            }
            let update = self.next.take().expect("peeked");
            if update.key < record.key {
                if let Some(inserted) = update.apply_to(None, &self.schema) {
                    emit(inserted);
                }
                continue;
            }
            let joined = if update.ts > page_ts {
                update.apply_to(Some(record), &self.schema)
            } else {
                // Already migrated into the page.
                Some(record)
            };
            if let Some(joined) = joined {
                emit(joined);
            }
            match rest.next() {
                Some(next) => (record, page_ts) = next,
                None => return,
            }
        }
    }

    /// The updates past the last data record.
    fn tail(&mut self, emit: &mut impl FnMut(Record)) {
        while let Some(update) = self.next.take().or_else(|| self.updates.next()) {
            if let Some(inserted) = update.apply_to(None, &self.schema) {
                emit(inserted);
            }
        }
    }
}

impl<D, U> MergeDataUpdates<D, U> {
    /// Build the outer join.
    pub fn new(data: D, updates: U, schema: Schema) -> Self {
        MergeDataUpdates {
            data,
            join: Join {
                updates,
                schema,
                next: None,
            },
            out: VecDeque::new(),
            done: false,
        }
    }

    /// Hand out the next joined record, if one is buffered.
    pub fn pop(&mut self) -> Option<Record> {
        self.out.pop_front()
    }
}

impl<U: Iterator<Item = UpdateRecord>> MergeDataUpdates<RangeScan, U> {
    /// Join heap pages with the updates that fall inside them until a
    /// record is buffered or both sides are exhausted. The pages come
    /// out of the I/O batch the heap scan holds in memory anyway, so a
    /// refill reads no further ahead than the scan already did. A heap
    /// read error ends the join; see [`MergeDataUpdates::take_error`].
    pub fn refill(&mut self) {
        while self.out.is_empty() && !self.done {
            let mut emit = |record| self.out.push_back(record);
            if let Some(mut page) = self.data.next_batch() {
                if let Some(first) = page.next() {
                    self.join.batch(first, page, &mut emit);
                }
                continue;
            }
            self.done = true;
            if self.data.error().is_none() {
                self.join.tail(&mut emit);
            }
        }
    }

    /// The heap read error that cut the join short, if one did, handed
    /// over once the join has ended. Until then it stays with the heap
    /// scan — a failed prefetch is recorded while the pages before it
    /// are still being joined, and `refill` must find it there when they
    /// run out, or it would emit the updates past the gap as inserts.
    pub fn take_error(&mut self) -> Option<StorageError> {
        if self.done {
            self.data.take_error()
        } else {
            None
        }
    }

    /// End the join here and drop the records of the last
    /// [`MergeDataUpdates::refill`] that were not handed out: the update
    /// side failed under them.
    pub fn abort(&mut self) {
        self.out.clear();
        self.done = true;
    }
}

/// Data records a join over a plain iterator takes per refill: about
/// what a heap page holds.
const JOIN_CHUNK: usize = 64;

impl<D, U> Iterator for MergeDataUpdates<D, U>
where
    D: Iterator<Item = (Record, u64)>,
    U: Iterator<Item = UpdateRecord>,
{
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        while self.out.is_empty() && !self.done {
            let mut emit = |record| self.out.push_back(record);
            if let Some(first) = self.data.next() {
                let rest = self.data.by_ref().take(JOIN_CHUNK - 1);
                self.join.batch(first, rest, &mut emit);
            } else {
                self.done = true;
                self.join.tail(&mut emit);
            }
        }
        self.out.pop_front()
    }
}

/// `Merge_data_updates` over one rewrite chunk, on borrowed pages: the
/// join of [`MergeDataUpdates`] as a migration runs it, from the pages
/// of `old` into the pages [`PageChunk`] packs in `out`.
///
/// The cases are the same — and so are the pages, byte for byte, that
/// packing the records of a [`MergeDataUpdates`] over `old`'s records
/// with [`masm_pagestore::Page::append`] would give — but **a record no
/// update touches is never decoded**: per old page the slot directory
/// is binary-searched, from the current slot, for the key of the next
/// due update, and the run of records below it moves as its encoded
/// bytes ([`PageChunk::push_run`]). A [`Record`] is materialized only
/// where a `Modify` newer than the page's timestamp meets its record.
///
/// An update is *due* to this chunk when its key is at most the chunk's
/// last key (a gap insert past it opens the next chunk); the last chunk
/// of a rewrite takes everything left. `updates` is left with the first
/// update that is not due peeked. Returns the number of updates
/// consumed.
pub(crate) fn join_chunk<U: Iterator<Item = UpdateRecord>>(
    old: &PageChunk,
    updates: &mut Peekable<U>,
    last_chunk: bool,
    schema: &Schema,
    out: &mut PageChunk,
) -> Result<u64, RecordTooLarge> {
    let chunk_max = old.pages().filter_map(|p| p.max_key()).max();
    let due = |u: &UpdateRecord| last_chunk || chunk_max.is_none_or(|max| u.key <= max);
    let mut consumed = 0;
    for page in old.pages() {
        let (page_ts, records) = (page.timestamp(), page.record_count());
        let mut slot = 0;
        while slot < records {
            // The run of records below the next due update moves as it is.
            let next_key = updates.peek().filter(|u| due(u)).map(|u| u.key);
            let bound = next_key.map_or(records, |key| page.lower_bound(slot, key));
            out.push_run(page, slot..bound)?;
            slot = bound;
            if slot == records {
                // The update, if there is one, is for a later page.
                break;
            }
            let update = updates.next().expect("peeked");
            consumed += 1;
            if update.key < page.key_at(slot) {
                if let Some(inserted) = update.apply_to(None, schema) {
                    out.push(&inserted)?;
                }
                continue;
            }
            if update.ts <= page_ts {
                // Already migrated into the page.
                out.push_encoded(page.record_bytes(slot))?;
            } else {
                // Only a modify reads the record it meets.
                let base = matches!(update.op, UpdateOp::Modify(_)).then(|| page.record(slot));
                if let Some(joined) = update.apply_to(base, schema) {
                    out.push(&joined)?;
                }
            }
            slot += 1;
        }
    }
    // The due updates past the last record.
    while let Some(update) = updates.next_if(|u| due(u)) {
        consumed += 1;
        if let Some(inserted) = update.apply_to(None, schema) {
            out.push(&inserted)?;
        }
    }
    Ok(consumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{FieldPatch, UpdateOp};
    use masm_pagestore::{Field, FieldType, Page};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("v", FieldType::U32)])
    }

    fn payload(v: u32) -> Vec<u8> {
        v.to_le_bytes().to_vec()
    }

    fn ins(ts: Timestamp, key: Key, v: u32) -> UpdateRecord {
        UpdateRecord::new(ts, key, UpdateOp::Insert(payload(v)))
    }

    fn del(ts: Timestamp, key: Key) -> UpdateRecord {
        UpdateRecord::new(ts, key, UpdateOp::Delete)
    }

    fn modi(ts: Timestamp, key: Key, v: u32) -> UpdateRecord {
        UpdateRecord::new(
            ts,
            key,
            UpdateOp::Modify(vec![FieldPatch {
                field: 0,
                value: payload(v),
            }]),
        )
    }

    fn stream(us: Vec<UpdateRecord>) -> UpdateStream {
        Box::new(us.into_iter())
    }

    #[test]
    fn kway_merge_orders_and_folds() {
        let s1 = stream(vec![ins(1, 10, 1), modi(4, 20, 4)]);
        let s2 = stream(vec![modi(2, 10, 2), ins(3, 30, 3)]);
        let merged: Vec<UpdateRecord> =
            MergeUpdates::new(vec![s1, s2], schema(), u64::MAX).collect();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].key, 10);
        // insert(1) + modify(2) folded into insert with patched payload.
        match &merged[0].op {
            UpdateOp::Insert(p) => assert_eq!(p, &payload(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(merged[1].key, 20);
        assert_eq!(merged[2].key, 30);
    }

    #[test]
    fn kway_raw_merge_preserves_all_versions() {
        let s1 = stream(vec![ins(1, 10, 1), modi(4, 10, 4)]);
        let s2 = stream(vec![modi(2, 10, 2)]);
        let got: Vec<(Key, Timestamp)> = KWayUpdates::new(vec![s1, s2])
            .map(|u| (u.key, u.ts))
            .collect();
        assert_eq!(got, vec![(10, 1), (10, 2), (10, 4)]);
    }

    #[test]
    fn merge_respects_as_of() {
        let s1 = stream(vec![ins(1, 10, 1), modi(5, 10, 5), ins(9, 20, 9)]);
        let merged: Vec<UpdateRecord> = MergeUpdates::new(vec![s1], schema(), 4).collect();
        // Only ts=1 visible for key 10; key 20 invisible entirely.
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].ts, 1);
        assert!(matches!(merged[0].op, UpdateOp::Insert(_)));
    }

    #[test]
    fn merge_empty_streams() {
        let merged: Vec<UpdateRecord> = MergeUpdates::new(vec![], schema(), u64::MAX).collect();
        assert!(merged.is_empty());
        let merged: Vec<UpdateRecord> =
            MergeUpdates::new(vec![stream(vec![])], schema(), u64::MAX).collect();
        assert!(merged.is_empty());
    }

    #[test]
    fn fold_duplicates_guarded() {
        let sorted = vec![ins(1, 10, 1), modi(3, 10, 3), modi(7, 10, 7)];
        // A query with ts=5 sits between 3 and 7: (3,7) must not fold.
        let folded = fold_duplicates(sorted, &schema(), |t1, t2| {
            let active = [5u64];
            !active.iter().any(|&t| t1 < t && t <= t2)
        });
        assert_eq!(folded.len(), 2);
        assert_eq!(folded[0].ts, 3); // 1+3 folded
        assert_eq!(folded[1].ts, 7);
    }

    #[test]
    fn fold_duplicates_unguarded_folds_all() {
        let sorted = vec![ins(1, 10, 1), del(2, 10), ins(3, 10, 3), del(9, 11)];
        let folded = fold_duplicates(sorted, &schema(), |_, _| true);
        assert_eq!(folded.len(), 2);
        assert!(matches!(folded[0].op, UpdateOp::Replace(_)));
        assert_eq!(folded[1].key, 11);
    }

    fn data(recs: Vec<(Key, u32, u64)>) -> impl Iterator<Item = (Record, u64)> {
        recs.into_iter()
            .map(|(k, v, ts)| (Record::new(k, payload(v)), ts))
    }

    #[test]
    fn outer_join_all_cases() {
        // Data: keys 10, 20, 30 (page_ts 0). Updates: delete 10, modify
        // 20, insert 15, modify 99 (no base).
        let updates = vec![
            del(1, 10),
            ins(2, 15, 150),
            modi(3, 20, 200),
            modi(4, 99, 990),
        ];
        let out: Vec<Record> = MergeDataUpdates::new(
            data(vec![(10, 1, 0), (20, 2, 0), (30, 3, 0)]),
            updates.into_iter(),
            schema(),
        )
        .collect();
        let keys: Vec<Key> = out.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![15, 20, 30]);
        let s = schema();
        assert_eq!(s.get_u32(&out[0].payload, 0), 150);
        assert_eq!(s.get_u32(&out[1].payload, 0), 200);
        assert_eq!(s.get_u32(&out[2].payload, 0), 3);
    }

    #[test]
    fn outer_join_trailing_inserts() {
        let updates = vec![ins(1, 100, 1), ins(2, 200, 2)];
        let out: Vec<Key> =
            MergeDataUpdates::new(data(vec![(10, 1, 0)]), updates.into_iter(), schema())
                .map(|r| r.key)
                .collect();
        assert_eq!(out, vec![10, 100, 200]);
    }

    #[test]
    fn outer_join_page_ts_skips_applied_updates() {
        // Page already carries the update (page_ts = 5 ≥ u.ts = 3).
        let updates = vec![modi(3, 10, 999)];
        let out: Vec<Record> =
            MergeDataUpdates::new(data(vec![(10, 1, 5)]), updates.into_iter(), schema()).collect();
        assert_eq!(schema().get_u32(&out[0].payload, 0), 1, "must not re-apply");
    }

    #[test]
    fn outer_join_empty_sides() {
        let out: Vec<Record> =
            MergeDataUpdates::new(data(vec![]), Vec::new().into_iter(), schema()).collect();
        assert!(out.is_empty());

        let out: Vec<Key> = MergeDataUpdates::new(
            data(vec![(1, 1, 0), (2, 2, 0)]),
            Vec::new().into_iter(),
            schema(),
        )
        .map(|r| r.key)
        .collect();
        assert_eq!(out, vec![1, 2]);
    }

    /// Pages of 512 bytes take 13 records of the two-field schema.
    const PAGE: usize = 512;
    const FULL: usize = 13;

    fn wide_schema() -> Schema {
        Schema::new(vec![
            Field::new("v", FieldType::U32),
            Field::new("pad", FieldType::Bytes(20)),
        ])
    }

    fn wide_payload(v: u32) -> Vec<u8> {
        let mut p = v.to_le_bytes().to_vec();
        p.extend([v as u8; 20]);
        p
    }

    /// Pack `records` the way the migration loop did before
    /// [`join_chunk`]: `Page::new`, the stamp, `append` until it does
    /// not fit.
    fn packed(records: impl IntoIterator<Item = Record>, stamp: u64) -> Vec<u8> {
        let mut pages: Vec<Page> = Vec::new();
        for r in records {
            if !pages.last().is_some_and(|p| p.fits(&r)) {
                pages.push(Page::new(PAGE));
                pages.last_mut().unwrap().set_timestamp(stamp);
            }
            assert!(pages.last_mut().unwrap().append(&r));
        }
        pages.iter().flat_map(|p| p.as_bytes().to_vec()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 384,
            ..proptest::ProptestConfig::default()
        })]

        /// The pages `join_chunk` packs are, byte for byte, the pages
        /// packed from `MergeDataUpdates` over the decoded records, and
        /// it consumes the same updates. Page `p` of the chunk holds
        /// `fill` records at keys `1000 p + 10, 1000 p + 20, …`: the
        /// keys between them, below the first and between two pages are
        /// free for inserts. An update is placed by (page, slot, step):
        /// on a record, in a gap of a page, in the gap between pages,
        /// past the chunk's last record or past the chunk's last page.
        /// Timestamps of pages and updates share one small range, so an
        /// update is as often already in its page as not.
        #[test]
        fn join_chunk_packs_the_pages_of_the_record_join(
            pages in proptest::collection::vec((1..=FULL, 0u64..=10), 1..=6),
            ops in proptest::collection::vec(
                ((0u64..8, 0u64..16, 0u64..3), 0u8..5, 1u64..=10, proptest::any::<u32>()),
                0..48,
            ),
            wiped in 0usize..10,
            stamp in 0u64..100,
            last_chunk in proptest::any::<bool>(),
        ) {
            let schema = wide_schema();
            let old: Vec<Page> = pages
                .iter()
                .enumerate()
                .map(|(p, &(fill, page_ts))| {
                    let mut page = Page::new(PAGE);
                    page.set_timestamp(page_ts);
                    for slot in 1..=fill as u64 {
                        let key = 1000 * p as u64 + 10 * slot;
                        assert!(page.append(&Record::new(key, wide_payload(key as u32))));
                    }
                    assert_eq!(page.fits(&Record::new(Key::MAX, wide_payload(0))), fill < FULL);
                    page
                })
                .collect();

            let mut updates: Vec<UpdateRecord> = ops
                .into_iter()
                .map(|((page, slot, step), kind, ts, v)| {
                    let key = 1000 * page + 10 * slot + [0, 0, 5][step as usize];
                    let patch = |field: u16, value: Vec<u8>| FieldPatch { field, value };
                    let op = match kind {
                        0 => UpdateOp::Insert(wide_payload(v)),
                        1 => UpdateOp::Delete,
                        2 => UpdateOp::Modify(vec![patch(0, v.to_le_bytes().to_vec())]),
                        3 => UpdateOp::Replace(wide_payload(v)),
                        _ => UpdateOp::Modify(vec![
                            patch(0, v.to_le_bytes().to_vec()),
                            patch(1, vec![v as u8; 20]),
                        ]),
                    };
                    UpdateRecord::new(ts, key, op)
                })
                .collect();
            // One page loses every record it has (to deletes newer than
            // the page).
            if let Some(page) = old.get(wiped) {
                updates.retain(|u| !(page.min_key()..=page.max_key()).contains(&Some(u.key)));
                updates.extend(page.records().map(|r| del(page.timestamp() + 1, r.key)));
            }
            // A folded stream: key order, one update per key.
            updates.sort_by_key(|u| u.key);
            updates.dedup_by_key(|u| u.key);

            let chunk_max = old.last().unwrap().max_key().unwrap();
            let due = updates
                .iter()
                .take_while(|u| last_chunk || u.key <= chunk_max)
                .count();
            let data = old.iter().flat_map(|page| {
                let page_ts = page.timestamp();
                page.records().map(move |record| (record, page_ts))
            });
            let joined =
                MergeDataUpdates::new(data, updates[..due].iter().cloned(), schema.clone());
            let want = packed(joined, stamp);

            let chunk = PageChunk::from_bytes(
                PAGE,
                old.iter().flat_map(|p| p.as_bytes().to_vec()).collect(),
            );
            // A reused output buffer, with another chunk's pages in it.
            let mut out = PageChunk::from_bytes(PAGE, vec![0xA5; 3 * PAGE]);
            out.reset(stamp);
            let mut stream = updates.clone().into_iter().peekable();
            let consumed = join_chunk(&chunk, &mut stream, last_chunk, &schema, &mut out).unwrap();
            proptest::prop_assert_eq!(consumed as usize, due);
            proptest::prop_assert_eq!(stream.next(), updates.get(due).cloned());
            proptest::prop_assert!(
                out.as_bytes() == want,
                "{} pages packed, {} wanted",
                out.len(),
                want.len() / PAGE
            );
        }
    }

    #[test]
    fn outer_join_delete_of_missing_key_is_noop() {
        let updates = vec![del(1, 5)];
        let out: Vec<Key> =
            MergeDataUpdates::new(data(vec![(10, 1, 0)]), updates.into_iter(), schema())
                .map(|r| r.key)
                .collect();
        assert_eq!(out, vec![10]);
    }
}
