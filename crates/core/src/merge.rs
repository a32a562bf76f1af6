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
//! tree is literally a composition of iterators here. The join hands
//! out **one record at a time** and keeps none: the next in-range record
//! is decoded straight out of the heap scan's page buffer, and while its
//! key is below the next update's it passes for one comparison — no
//! clock read, no lock, no update touched (`Join::pass`). Only an
//! update pull or a page advance takes the slow step (`Join::step`).
//!
//! **Idempotence note.** `Merge_updates` folds all updates to the same
//! key into one (e.g. delete + insert ⇒ replace). During migration a
//! page's timestamp may fall *between* two folded updates; applying the
//! folded result again is still correct because every folded form is a
//! state-setter (replace/delete/modify-to-value), i.e. idempotent — the
//! paper relies on the same property for crash-redo of migrations.
//!
//! Every k-way merge plays one tournament, a `LoserTree` over the
//! sources' `(key, ts)`. The engine's jobs all merge with `RunMerge`
//! and never build an [`UpdateRecord`] per entry: the winner's
//! operation is copied, as the bytes of its run entry, into a reused
//! buffer. A compaction appends those bytes to its output run, a
//! migration's `join_chunk` applies them to page bytes, and a merged
//! scan applies them to the record it hands out (`RunUpdates` folds a
//! key's versions first). A migration and a compaction merge
//! [`RunScan`]s only; a query's sources are its run scans, then its
//! sealed batches, the buffer's snapshot and its private overlay
//! (`QuerySource`), each in-memory update lending its operation
//! encoded. Only two visible versions of one key that must fold are
//! decoded, folded and re-encoded (`fold_values`). [`KWayUpdates`] and
//! [`MergeUpdates`] play the same tournament over boxed streams of
//! decoded updates, for the baselines.
//!
//! Run-to-run merges (2-pass materialization, §3.5 compaction) are
//! planned first. [`compact_block_runs`] asks the
//! [`masm_blockrun::plan::MergePlanner`] which whole blocks overlap no
//! other input and relinks those verbatim — CRC-checked, never decoded
//! — falling back to the k-way fold only for genuinely overlapping key
//! ranges.

use std::collections::VecDeque;
use std::sync::Arc;

use masm_blockrun::{BlockRunMeta, BloomFilter, MergePlanner, RunBuilder, Segment};
use masm_pagestore::{Key, PageChunk, RangeScan, Record, Schema, RECORD_HEADER};
use masm_storage::{IoTicket, MergeReport, SessionHandle, SimDevice, StorageError};

use crate::config::MasmConfig;
use crate::error::{MasmError, MasmResult};
use crate::run::{RunScan, ScanFailures, SortedRun};
use crate::ts::Timestamp;
use crate::update::{OpRef, UpdateOp, UpdateRecord};

/// Type-erased sorted update stream (sorted by `(key, ts)`).
pub type UpdateStream = Box<dyn Iterator<Item = UpdateRecord> + Send>;

/// One source's place in the merge order: its current entry's
/// `(key, ts)` as one number, then — for ties — whether it is
/// exhausted and its index. An exhausted source sorts after every live
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    entry: u128,
    tie: u32,
}

/// The `tie` bit of an exhausted source.
const DONE: u32 = 1 << 31;

impl Rank {
    fn new(src: usize, head: Option<(Key, Timestamp)>) -> Rank {
        match head {
            Some((key, ts)) => Rank {
                entry: (key as u128) << 64 | ts as u128,
                tie: src as u32,
            },
            None => Rank {
                entry: u128::MAX,
                tie: DONE | src as u32,
            },
        }
    }

    /// The `(key, ts)` of a live source.
    fn head(self) -> Option<(Key, Timestamp)> {
        (self.tie & DONE == 0).then_some(((self.entry >> 64) as Key, self.entry as Timestamp))
    }
}

/// The tournament of a k-way merge. Source `i` is leaf `k + i` of an
/// implicit binary tree; internal node `p` (`1 ≤ p < k`) keeps the
/// index of the *loser* of the match played there, and `winner` the
/// overall winner. The sources' ranks sit apart, one per source: when
/// the winner's source moves on, only its path to the root is replayed
/// — ⌈log₂ k⌉ comparisons of two ranks, each settled by selecting one
/// of two `u32`s with the climbing rank kept in hand, never a look at
/// a source. Merging boxed streams of 4,000 random-key deletes on one
/// core of a 2-vCPU Xeon VM, it takes 13–15 ns an update at fan-in 2
/// and 29–39 at 32, where the binary heap it replaces took 20–23 and
/// 30–52; nodes that carried their loser's `(key, ts)` inline took 64
/// at 32 (a 24-byte conditional swap per level).
#[derive(Debug)]
struct LoserTree {
    losers: Vec<u32>,
    winner: u32,
    ranks: Vec<Rank>,
}

impl LoserTree {
    /// A tournament over the sources whose current entries are `heads`.
    fn new(heads: impl ExactSizeIterator<Item = Option<(Key, Timestamp)>>) -> LoserTree {
        let k = heads.len();
        let ranks: Vec<Rank> = heads
            .enumerate()
            .map(|(src, h)| Rank::new(src, h))
            .collect();
        // The winner of every subtree, leaves included, in the same layout.
        let mut winners = vec![0; 2 * k];
        for (src, leaf) in winners[k..].iter_mut().enumerate() {
            *leaf = src as u32;
        }
        let mut losers = vec![0; k.max(1)];
        for p in (1..k).rev() {
            let (a, b) = (winners[2 * p], winners[2 * p + 1]);
            let a_wins = ranks[a as usize] < ranks[b as usize];
            (winners[p], losers[p]) = if a_wins { (a, b) } else { (b, a) };
        }
        let winner = winners.get(1).copied().unwrap_or(0);
        LoserTree {
            losers,
            winner,
            ranks,
        }
    }

    /// The source whose entry comes next, with its `(key, ts)`.
    fn winner(&self) -> Option<(usize, Key, Timestamp)> {
        let src = self.winner as usize;
        let (key, ts) = self.ranks.get(src)?.head()?;
        Some((src, key, ts))
    }

    /// The winner's source has moved on to `head`: replay its path.
    fn replay(&mut self, head: Option<(Key, Timestamp)>) {
        let k = self.ranks.len();
        let src = self.winner as usize;
        let mut rank = Rank::new(src, head);
        self.ranks[src] = rank;
        let (mut cur, mut p) = (self.winner, (k + src) / 2);
        while p > 0 {
            let loser = self.losers[p];
            let loser_rank = self.ranks[loser as usize];
            let loser_wins = loser_rank < rank;
            self.losers[p] = if loser_wins { cur } else { loser };
            (cur, rank) = if loser_wins {
                (loser, loser_rank)
            } else {
                (cur, rank)
            };
            p /= 2;
        }
        self.winner = cur;
    }

    /// End the tournament: no winner from now on.
    fn end(&mut self) {
        self.ranks.clear();
    }
}

/// Raw k-way merge of sorted update streams: yields every update in
/// `(key, ts)` order without folding. Used directly when materializing a
/// 2-pass run (folding there is a separate, guarded step — see
/// [`fold_duplicates`]).
pub struct KWayUpdates {
    streams: Vec<UpdateStream>,
    /// Every input's current update.
    heads: Vec<Option<UpdateRecord>>,
    tree: LoserTree,
}

impl KWayUpdates {
    /// Merge `streams`, each sorted by `(key, ts)`.
    pub fn new(mut streams: Vec<UpdateStream>) -> Self {
        let heads: Vec<Option<UpdateRecord>> = streams.iter_mut().map(Iterator::next).collect();
        let tree = LoserTree::new(heads.iter().map(|h| h.as_ref().map(|u| (u.key, u.ts))));
        KWayUpdates {
            streams,
            heads,
            tree,
        }
    }

    /// Key of the next update without consuming it.
    pub(crate) fn peek_key(&self) -> Option<Key> {
        self.tree.winner().map(|(_, key, _)| key)
    }
}

impl Iterator for KWayUpdates {
    type Item = UpdateRecord;

    fn next(&mut self) -> Option<UpdateRecord> {
        let (src, _, _) = self.tree.winner()?;
        let next = self.streams[src].next();
        self.tree.replay(next.as_ref().map(|u| (u.key, u.ts)));
        std::mem::replace(&mut self.heads[src], next)
    }
}

/// A sorted source of entries that a [`RunMerge`] plays: a run scan
/// (a migration's and a compaction's only kind), or, for a query,
/// updates held in memory ([`QuerySource`]).
pub(crate) trait MergeSource {
    /// Key and timestamp of the current entry; `None` past the last, or
    /// after a failure, which goes to the job's slot.
    fn head(&mut self) -> Option<(Key, Timestamp)>;

    /// Copy the current entry's encoded operation into `value` and step
    /// past it; `false`, the failure reported, where it does not parse.
    fn take_value_into(&mut self, value: &mut Vec<u8>) -> bool;
}

/// Updates held in memory — a sealed batch's cut, the buffer's
/// snapshot, a transaction's own writes — as a merge source: sorted by
/// `(key, ts)`, each lending its operation encoded into the merge's
/// buffer ([`UpdateRecord::encode_value_into`]).
pub(crate) struct MemUpdates {
    updates: Arc<Vec<UpdateRecord>>,
    /// The updates not taken yet.
    rest: std::ops::Range<usize>,
}

impl MemUpdates {
    /// The updates `range` of `updates`.
    pub(crate) fn new(updates: Arc<Vec<UpdateRecord>>, range: std::ops::Range<usize>) -> Self {
        MemUpdates {
            updates,
            rest: range,
        }
    }
}

impl MergeSource for MemUpdates {
    #[inline]
    fn head(&mut self) -> Option<(Key, Timestamp)> {
        let u = self.updates[self.rest.clone()].first()?;
        Some((u.key, u.ts))
    }

    #[inline]
    fn take_value_into(&mut self, value: &mut Vec<u8>) -> bool {
        value.clear();
        if let Some(u) = self.updates[self.rest.clone()].first() {
            u.encode_value_into(value);
            self.rest.start += 1;
        }
        true
    }
}

/// What a query merges: its run scans, then its sealed batches, the
/// buffer's snapshot and its private overlay — in that order, which
/// settles ties.
pub(crate) enum QuerySource {
    Run(Box<RunScan>),
    Mem(MemUpdates),
}

impl MergeSource for QuerySource {
    #[inline]
    fn head(&mut self) -> Option<(Key, Timestamp)> {
        match self {
            QuerySource::Run(scan) => scan.head(),
            QuerySource::Mem(mem) => mem.head(),
        }
    }

    #[inline]
    fn take_value_into(&mut self, value: &mut Vec<u8>) -> bool {
        match self {
            QuerySource::Run(scan) => scan.take_value_into(value),
            QuerySource::Mem(mem) => mem.take_value_into(value),
        }
    }
}

/// The k-way merge of sorted sources, lending: the same tournament and
/// the same order as [`KWayUpdates`], over concrete [`MergeSource`]s
/// (a migration's and a compaction's are [`RunScan`]s, nothing else),
/// and no [`UpdateRecord`] — an entry's value is copied, as the bytes
/// of its encoded operation, into a buffer the caller reuses. The
/// winner's value is taken and its source advanced at the point
/// [`KWayUpdates`] advances its stream, so every device read happens in
/// the same order.
pub(crate) struct RunMerge<S = RunScan> {
    scans: Vec<S>,
    tree: LoserTree,
}

impl<S: MergeSource> RunMerge<S> {
    /// Merge `scans`, fetching the first block of each, in order.
    pub(crate) fn new(mut scans: Vec<S>) -> Self {
        let heads: Vec<Option<(Key, Timestamp)>> = scans.iter_mut().map(S::head).collect();
        RunMerge {
            tree: LoserTree::new(heads.into_iter()),
            scans,
        }
    }

    /// Key of the next entry without taking it.
    pub(crate) fn peek_key(&self) -> Option<Key> {
        self.tree.winner().map(|(_, key, _)| key)
    }

    /// Take the next entry: its value into `value`, its `(key, ts)`
    /// returned. A value that does not parse ends the whole merge (its
    /// scan reports it; the job fails at its check).
    pub(crate) fn pop_into(&mut self, value: &mut Vec<u8>) -> Option<(Key, Timestamp)> {
        let (src, key, ts) = self.tree.winner()?;
        let scan = &mut self.scans[src];
        if !scan.take_value_into(value) {
            self.tree.end();
            return None;
        }
        self.tree.replay(scan.head());
        Some((key, ts))
    }

    /// The merge ends here: a job found what it took unusable and said
    /// so in its failure slot.
    fn end(&mut self) {
        self.tree.end();
    }
}

/// Fold `later`, the next visible version of `key`, into `earlier` (both
/// the bytes of encoded operations, `earlier` the older): decode both,
/// [`UpdateRecord::fold`], re-encode into `earlier`. The one place a
/// migration or a compaction builds an [`UpdateRecord`]. `None` — and
/// `earlier` as it was — when the fold cannot be made: a value that
/// does not decode, or a patch its payload cannot take.
fn fold_values(
    earlier: &mut Vec<u8>,
    later: &[u8],
    key: Key,
    (t1, t2): (Timestamp, Timestamp),
    schema: &Schema,
) -> Option<()> {
    let first = UpdateRecord::decode_value(key, t1, earlier)?;
    let folded = first.fold(&UpdateRecord::decode_value(key, t2, later)?, schema)?;
    earlier.clear();
    folded.encode_value_into(earlier);
    Some(())
}

/// A key-ordered stream of folded updates, one per key, that lends each
/// one's operation as the bytes of its encoding
/// ([`UpdateRecord::encode_value`]): what [`join_chunk`] applies.
pub(crate) trait LentUpdates {
    /// Key of the next update, without consuming it.
    fn peek_key(&mut self) -> Option<Key>;

    /// The next update: key, timestamp and its encoded operation.
    fn next_lent(&mut self) -> Option<(Key, Timestamp, &[u8])>;
}

/// `Merge_updates` over a [`RunMerge`], lending: the folded stream of
/// [`MergeUpdates`] — every version of a key visible at `as_of` folded
/// into one. A key with one visible version (the common case) hands out
/// that entry's bytes as they were copied out of its block; only two
/// visible versions of one key build [`UpdateRecord`]s
/// ([`fold_values`]). A fold that cannot be made reports
/// [`MasmError::Corrupt`] to the job's slot and ends the stream. A
/// migration joins it with page bytes ([`join_chunk`]), a query with
/// records ([`JoinUpdates`]).
pub(crate) struct RunUpdates<S = RunScan> {
    merge: RunMerge<S>,
    schema: Schema,
    as_of: Timestamp,
    failures: ScanFailures,
    /// The next folded update, once pulled: its key and timestamp; its
    /// operation is in `value`.
    head: Option<(Key, Timestamp)>,
    value: Vec<u8>,
    /// The version being folded into `value`.
    later: Vec<u8>,
}

impl<S: MergeSource> RunUpdates<S> {
    /// Fold `merge`'s entries visible at `as_of`; a failure goes to
    /// `failures`, the slot its scans report to.
    pub(crate) fn new(
        merge: RunMerge<S>,
        schema: Schema,
        as_of: Timestamp,
        failures: ScanFailures,
    ) -> Self {
        RunUpdates {
            merge,
            schema,
            as_of,
            failures,
            head: None,
            value: Vec::new(),
            later: Vec::new(),
        }
    }

    /// Pull the next key's versions, all of them — the order in which
    /// [`MergeUpdates`] pulls them, and with it the device reads.
    fn fill(&mut self) {
        while self.head.is_none() {
            let Some((key, ts)) = self.merge.pop_into(&mut self.value) else {
                return;
            };
            let mut visible = (ts <= self.as_of).then_some(ts);
            while self.merge.peek_key() == Some(key) {
                let Some((_, ts)) = self.merge.pop_into(&mut self.later) else {
                    return;
                };
                if ts > self.as_of {
                    continue;
                }
                if let Some(earlier) = visible {
                    let pair = (earlier, ts);
                    if fold_values(&mut self.value, &self.later, key, pair, &self.schema).is_none()
                    {
                        self.failures.report(MasmError::Corrupt("run entry"));
                        self.merge.end();
                        return;
                    }
                } else {
                    std::mem::swap(&mut self.value, &mut self.later);
                }
                visible = Some(ts);
            }
            self.head = visible.map(|ts| (key, ts));
        }
    }
}

impl<S: MergeSource> LentUpdates for RunUpdates<S> {
    fn peek_key(&mut self) -> Option<Key> {
        self.fill();
        self.head.map(|(key, _)| key)
    }

    fn next_lent(&mut self) -> Option<(Key, Timestamp, &[u8])> {
        self.fill();
        let (key, ts) = self.head.take()?;
        Some((key, ts, &self.value))
    }
}

impl<S: MergeSource> JoinUpdates for RunUpdates<S> {
    #[inline]
    fn pull(&mut self) -> Option<(Key, Timestamp)> {
        self.head = None;
        self.fill();
        self.head
    }

    #[inline]
    fn apply(
        &mut self,
        key: Key,
        base: Option<impl FnOnce() -> Record>,
        schema: &Schema,
    ) -> Option<Option<Record>> {
        apply_to_record(key, OpRef::parse(&self.value)?, base, schema)
    }
}

/// `Merge_updates`: k-way merge of sorted update streams, folding all
/// updates to one key (visible at `as_of`) into a single update. A
/// later version that does not fold into the earlier one (a `modify`
/// its payload cannot take) is dropped: the engine's own merge reports
/// it, and this merge's callers have no error slot to read.
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
                    Some(cur) => cur.fold(&nxt, &self.schema).unwrap_or(cur),
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
/// execution. *Merge* segments are decoded through [`RunScan`]s (each
/// of the k scans with a prefetch depth of min(k, 16) for the plan's
/// fan-in k, so up to k·min(k, 16) reads in flight) and **streamed**
/// entry-at-a-time through a `RunMerge` into the builder — each
/// entry's operation as its bytes ([`RunBuilder::append`]) —
/// optionally collapsing duplicate updates under `fold_guard` (§3.5
/// "Handling Skews": a pair folds only when no concurrent query
/// timestamp separates it; only such a pair is decoded). A merge
/// segment never materializes its output: the in-memory working set is
/// one head per input stream, one pending fold candidate, and the
/// builder's open block — `report.peak_merge_entries` records the
/// maximum, which §3.3's memory bound requires to stay independent of
/// the segment's total entry count. An entry whose operation does not
/// parse, or a pair that cannot fold, fails the compaction as
/// [`MasmError::Corrupt`].
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
    // The merge segments' value buffers, reused: the pending entry's
    // and the one just taken.
    let (mut held, mut next) = (Vec::new(), Vec::new());

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
                let scans: Vec<RunScan> = parts
                    .iter()
                    .map(|(run_idx, _)| {
                        RunScan::with_cache(
                            ssd.clone(),
                            session.clone(),
                            Arc::clone(&inputs[*run_idx]),
                            None,
                            *min_key,
                            *max_key,
                        )
                        .with_prefetch_depth(depth)
                        .reporting_to(failures.clone())
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
                // its bytes are appended the moment the key advances.
                let heads = parts.len();
                let mut merge = RunMerge::new(scans);
                let mut pending: Option<(Key, Timestamp)> = None;
                while let Some((key, ts)) = merge.pop_into(&mut next) {
                    pending = Some(match pending {
                        Some((k, t)) if k == key && fold_guard.is_some_and(|g| g(t, ts)) => {
                            fold_values(&mut held, &next, key, (t, ts), schema)
                                .ok_or(MasmError::Corrupt("run entry"))?;
                            (key, ts)
                        }
                        Some((k, t)) => {
                            builder.append(k, t, held.len(), |out| out.extend_from_slice(&held));
                            std::mem::swap(&mut held, &mut next);
                            (key, ts)
                        }
                        None => {
                            std::mem::swap(&mut held, &mut next);
                            (key, ts)
                        }
                    });
                    let live = (heads + 1 + builder.open_block_entries()) as u64;
                    report.peak_merge_entries = report.peak_merge_entries.max(live);
                }
                if let Some((k, t)) = pending {
                    builder.append(k, t, held.len(), |out| out.extend_from_slice(&held));
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
/// The join hands out one record at a time and holds at most the one
/// data record it is joining (the engine's merged scan runs the same
/// step over update bytes). Over a plain iterator of `(record, page
/// timestamp)` pairs it is itself an iterator. Over a heap
/// [`RangeScan`], [`MergeDataUpdates::refill`] makes one join step and
/// [`MergeDataUpdates::pop`] hands its record out, so a caller can
/// check its run scans' error slot between the two.
pub struct MergeDataUpdates<D, U> {
    data: D,
    /// The record in hand, over a plain iterator.
    held: Option<(Record, u64)>,
    join: Join<Decoded<U>>,
    /// The record of the last refill, not handed out yet.
    out: Option<Record>,
}

/// The data side of the join, one record at a time.
pub(crate) trait DataCursor {
    /// Key and page timestamp of the next record, without taking it;
    /// `None` once the data has ended. Moving to the next page goes
    /// through `watch`.
    fn peek(&mut self, watch: &mut impl Watch) -> Option<(Key, u64)>;

    /// Take the record [`DataCursor::peek`] named, decoded.
    fn take(&mut self) -> Record;

    /// Take the next record of the current page, decoded, if its key is
    /// below `limit`; `None`, and nothing moved, otherwise.
    fn take_below(&mut self, limit: Key) -> Option<Record>;

    /// Step past the record [`DataCursor::peek`] named.
    fn skip(&mut self);

    /// Whether the data ended on a read error rather than at its end.
    fn failed(&self) -> bool;
}

impl DataCursor for RangeScan {
    #[inline]
    fn peek(&mut self, watch: &mut impl Watch) -> Option<(Key, u64)> {
        loop {
            if let Some(next) = self.peek_record() {
                return Some(next);
            }
            if !watch.page(|| self.next_page()) {
                return None;
            }
        }
    }

    #[inline]
    fn take(&mut self) -> Record {
        self.take_record()
    }

    #[inline]
    fn take_below(&mut self, limit: Key) -> Option<Record> {
        match self.peek_record() {
            Some((key, _)) if key < limit => Some(self.take_record()),
            _ => None,
        }
    }

    #[inline]
    fn skip(&mut self) {
        self.skip_record()
    }

    fn failed(&self) -> bool {
        self.error().is_some()
    }
}

/// A plain iterator of `(record, page timestamp)` pairs as the join's
/// data side: the pair it holds is the record in hand.
struct Pairs<'a, D> {
    pairs: &'a mut D,
    held: &'a mut Option<(Record, u64)>,
}

impl<D: Iterator<Item = (Record, u64)>> DataCursor for Pairs<'_, D> {
    fn peek(&mut self, _: &mut impl Watch) -> Option<(Key, u64)> {
        if self.held.is_none() {
            *self.held = self.pairs.next();
        }
        self.held
            .as_ref()
            .map(|(record, page_ts)| (record.key, *page_ts))
    }

    fn take(&mut self) -> Record {
        self.held.take().expect("peeked").0
    }

    fn take_below(&mut self, limit: Key) -> Option<Record> {
        let below = self.peek(&mut ())?.0 < limit;
        below.then(|| self.take())
    }

    fn skip(&mut self) {
        *self.held = None;
    }

    fn failed(&self) -> bool {
        false
    }
}

/// What watches the two steps of a join that can touch a device: a
/// heap-page advance and an update pull. A merged scan times them.
pub(crate) trait Watch {
    /// Move the data side on to its next page.
    fn page(&mut self, advance: impl FnOnce() -> bool) -> bool;

    /// Pull the next update.
    fn pull(&mut self, pull: impl FnOnce() -> Option<(Key, Timestamp)>)
        -> Option<(Key, Timestamp)>;
}

/// Nobody watching.
impl Watch for () {
    fn page(&mut self, advance: impl FnOnce() -> bool) -> bool {
        advance()
    }

    fn pull(
        &mut self,
        pull: impl FnOnce() -> Option<(Key, Timestamp)>,
    ) -> Option<(Key, Timestamp)> {
        pull()
    }
}

/// The update side of the join: folded updates, one per key, in key
/// order.
pub(crate) trait JoinUpdates {
    /// Pull the next update: its key and timestamp, `None` past the
    /// last.
    fn pull(&mut self) -> Option<(Key, Timestamp)>;

    /// Apply the update pulled last to the record at its key — which
    /// `base` decodes; `None` in a gap — and return what is left of the
    /// record. `None` where the update does not parse, or does not fit
    /// the record it patches: the join reports it and ends.
    fn apply(
        &mut self,
        key: Key,
        base: Option<impl FnOnce() -> Record>,
        schema: &Schema,
    ) -> Option<Option<Record>>;
}

/// Decoded updates as the join's update side, [`MergeDataUpdates`]'
/// own. An update that does not fit the record it patches is dropped
/// with that record, and the join goes on: the callers of
/// [`MergeDataUpdates`] have no error slot to read it from.
struct Decoded<U> {
    updates: U,
    pulled: Option<UpdateRecord>,
}

impl<U: Iterator<Item = UpdateRecord>> JoinUpdates for Decoded<U> {
    fn pull(&mut self) -> Option<(Key, Timestamp)> {
        self.pulled = self.updates.next();
        self.pulled.as_ref().map(|u| (u.key, u.ts))
    }

    fn apply(
        &mut self,
        _: Key,
        base: Option<impl FnOnce() -> Record>,
        schema: &Schema,
    ) -> Option<Option<Record>> {
        let update = self.pulled.take().expect("pulled");
        let base = match update.op {
            UpdateOp::Modify(_) => base.map(|decode| decode()),
            _ => None,
        };
        Some(update.try_apply_to(base, schema).flatten())
    }
}

/// `op` at `key` applied to the record `base` decodes (none in a gap):
/// [`UpdateRecord::try_apply_to`] on the bytes of the operation. Only a
/// `modify` decodes the base record, and patches it in place; an insert
/// or a replace builds its record from the payload bytes. `None` where
/// a patch does not fit (where [`Schema::set`] would panic).
fn apply_to_record(
    key: Key,
    op: OpRef<'_>,
    base: Option<impl FnOnce() -> Record>,
    schema: &Schema,
) -> Option<Option<Record>> {
    Some(match (op, base) {
        (OpRef::Insert(payload) | OpRef::Replace(payload), _) => {
            Some(Record::new(key, payload.to_vec()))
        }
        (OpRef::Modify(patches), Some(decode)) => {
            let mut record = decode();
            for (field, value) in patches {
                if !schema.try_set(&mut record.payload, field as usize, value) {
                    return None;
                }
            }
            Some(record)
        }
        (OpRef::Delete, _) | (OpRef::Modify(_), None) => None,
    })
}

/// The join step of [`MergeDataUpdates`] and of the engine's merged
/// scan: the next joined record.
pub(crate) struct Join<U> {
    updates: U,
    schema: Schema,
    /// Where an update that does not fit its record is reported, and
    /// what is read after every pull: a record compared against an
    /// update stream that has failed is never handed out.
    failures: ScanFailures,
    /// The next update's key and timestamp (`None` past the last). It
    /// is pulled only once the data record it will be compared with is
    /// in hand: the order in which the two sides touch their devices is
    /// part of the simulated timeline.
    next: Option<(Key, Timestamp)>,
    /// `next` has been applied; the next update is still to be pulled.
    pull_due: bool,
    /// Records below this key pass through: the next update's key,
    /// `Key::MAX` past the last update, and 0 while an update is to be
    /// pulled or once the join has ended.
    limit: Key,
    /// The data side has ended.
    data_ended: bool,
    /// The join has ended: both sides are exhausted, or a failure
    /// stopped it.
    done: bool,
}

impl<U> Join<U> {
    /// The join of `updates` with a data side; a failure goes to
    /// `failures`.
    pub(crate) fn new(updates: U, schema: Schema, failures: ScanFailures) -> Self {
        Join {
            updates,
            schema,
            failures,
            next: None,
            pull_due: true,
            limit: 0,
            data_ended: false,
            done: false,
        }
    }

    /// End the join here.
    pub(crate) fn end(&mut self) {
        (self.done, self.limit) = (true, 0);
    }

    /// The next update is in hand: `next`.
    fn pulled(&mut self, next: Option<(Key, Timestamp)>) {
        self.next = next;
        self.pull_due = false;
        self.limit = next.map_or(Key::MAX, |(key, _)| key);
    }

    /// The update in hand has been applied.
    fn applied(&mut self) {
        (self.pull_due, self.limit) = (true, 0);
    }

    /// The next record of `data`, if it is below the next update: it
    /// passes through, for one comparison, and the update side is not
    /// touched.
    #[inline]
    pub(crate) fn pass(&mut self, data: &mut impl DataCursor) -> Option<Record> {
        data.take_below(self.limit)
    }
}

impl<U: JoinUpdates> Join<U> {
    /// The next joined record out of `data`; `None` once the join has
    /// ended. A run of records below the next update passes through
    /// ([`Join::pass`]) and never touches the update side.
    pub(crate) fn step(
        &mut self,
        data: &mut impl DataCursor,
        watch: &mut impl Watch,
    ) -> Option<Record> {
        if let Some(record) = self.pass(data) {
            return Some(record);
        }
        while !self.done {
            let record = if self.data_ended {
                None
            } else {
                data.peek(watch)
            };
            if record.is_none() {
                self.data_ended = true;
                if data.failed() {
                    // A heap read failed: the updates past the gap
                    // are no inserts.
                    break;
                }
            }
            if self.pull_due {
                let next = watch.pull(|| self.updates.pull());
                if self.failures.failed() {
                    break;
                }
                self.pulled(next);
            }
            let joined = match (record, self.next) {
                (None, None) => break,
                (Some(_), None) => return Some(data.take()),
                (Some((key, _)), Some((ukey, _))) if key < ukey => return Some(data.take()),
                (Some((key, page_ts)), Some((ukey, ts))) if key == ukey => {
                    self.applied();
                    if ts <= page_ts {
                        // Already migrated into the page.
                        return Some(data.take());
                    }
                    let mut decoded = false;
                    let base = || {
                        decoded = true;
                        data.take()
                    };
                    let joined = self.updates.apply(key, Some(base), &self.schema);
                    if !decoded {
                        data.skip();
                    }
                    joined
                }
                // An update below the next record, or past the last.
                (_, Some((ukey, _))) => {
                    self.applied();
                    let no_base: Option<fn() -> Record> = None;
                    self.updates.apply(ukey, no_base, &self.schema)
                }
            };
            match joined {
                Some(Some(record)) => return Some(record),
                Some(None) => {}
                None => {
                    self.failures.report(MasmError::Corrupt("run entry"));
                    break;
                }
            }
        }
        self.end();
        None
    }
}

impl<D, U> MergeDataUpdates<D, U> {
    /// Build the outer join.
    pub fn new(data: D, updates: U, schema: Schema) -> Self {
        let updates = Decoded {
            updates,
            pulled: None,
        };
        MergeDataUpdates {
            data,
            held: None,
            join: Join::new(updates, schema, ScanFailures::default()),
            out: None,
        }
    }

    /// Hand out the record of the last [`MergeDataUpdates::refill`], if
    /// it made one.
    pub fn pop(&mut self) -> Option<Record> {
        self.out.take()
    }
}

impl<U: Iterator<Item = UpdateRecord>> MergeDataUpdates<RangeScan, U> {
    /// Make one join step — heap pages are read as the step reaches
    /// them, out of the I/O batch the heap scan holds in memory anyway —
    /// unless its record has not been handed out yet. A step joins at
    /// most one record, so a caller that checks its run scans' error
    /// slot between a refill and its [`MergeDataUpdates::pop`] does so
    /// once per record: [`ScanFailures::failed`] reads a flag, not the
    /// lock. A heap read error ends the join; see
    /// [`MergeDataUpdates::take_error`].
    pub fn refill(&mut self) {
        if self.out.is_none() {
            self.out = self.join.step(&mut self.data, &mut ());
        }
    }

    /// The heap read error that cut the join short, if one did, handed
    /// over once the join has ended. Until then it stays with the heap
    /// scan — a failed prefetch is recorded while the pages before it
    /// are still being joined, and the join must find it there when
    /// they run out, or it would emit the updates past the gap as
    /// inserts.
    pub fn take_error(&mut self) -> Option<StorageError> {
        if self.join.done {
            self.data.take_error()
        } else {
            None
        }
    }

    /// End the join here and drop the record of the last
    /// [`MergeDataUpdates::refill`] if it was not handed out: the update
    /// side failed under it.
    pub fn abort(&mut self) {
        self.out = None;
        self.join.end();
    }
}

impl<D, U> Iterator for MergeDataUpdates<D, U>
where
    D: Iterator<Item = (Record, u64)>,
    U: Iterator<Item = UpdateRecord>,
{
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        let mut data = Pairs {
            pairs: &mut self.data,
            held: &mut self.held,
        };
        self.join.step(&mut data, &mut ())
    }
}

/// `Merge_data_updates` over one rewrite chunk, on bytes: the join of
/// [`MergeDataUpdates`] as a migration runs it, from the pages of `old`
/// and the encoded operations `updates` lends into the pages
/// [`PageChunk`] packs in `out`.
///
/// The cases are the same — and so are the pages, byte for byte, that
/// packing the records of a [`MergeDataUpdates`] over `old`'s records
/// and the decoded updates with [`masm_pagestore::Page::append`] would
/// give — but **nothing is decoded into a [`Record`] or an
/// [`UpdateRecord`]**. Per old page the slot directory is
/// binary-searched, from the current slot, for the key of the next due
/// update, and the run of records below it moves as its encoded bytes
/// ([`PageChunk::push_run`]). An update is applied as the bytes of its
/// operation ([`OpRef`]): an insert or a replace packs a record header
/// and its payload bytes, a `Modify` newer than the page copies the
/// record it meets and patches its fields in place, a delete packs
/// nothing.
///
/// An operation that does not parse — exactly what
/// [`UpdateRecord::decode_value`] rejects — or a patch its record
/// cannot take (where [`Schema::set`] would panic) is
/// [`MasmError::Corrupt`]`("run entry")`.
///
/// An update is *due* to this chunk when its key is at most the chunk's
/// last key (a gap insert past it opens the next chunk); the last chunk
/// of a rewrite takes everything left. `updates` is left with the first
/// update that is not due pulled but not taken. Returns the number of
/// updates consumed.
pub(crate) fn join_chunk(
    old: &PageChunk,
    updates: &mut impl LentUpdates,
    last_chunk: bool,
    schema: &Schema,
    out: &mut PageChunk,
) -> MasmResult<u64> {
    let chunk_max = old.pages().filter_map(|p| p.max_key()).max();
    let due = |key: Key| last_chunk || chunk_max.is_none_or(|max| key <= max);
    let mut consumed = 0;
    for page in old.pages() {
        let (page_ts, records) = (page.timestamp(), page.record_count());
        let mut slot = 0;
        while slot < records {
            // The run of records below the next due update moves as it is.
            let next_key = updates.peek_key().filter(|&key| due(key));
            let bound = next_key.map_or(records, |key| page.lower_bound(slot, key));
            out.push_run(page, slot..bound)?;
            slot = bound;
            if slot == records {
                // The update, if there is one, is for a later page.
                break;
            }
            let (key, ts, value) = updates.next_lent().expect("peeked");
            consumed += 1;
            let op = OpRef::parse(value).ok_or(MasmError::Corrupt("run entry"))?;
            if key < page.key_at(slot) {
                apply_op(key, op, None, schema, out)?;
                continue;
            }
            if ts <= page_ts {
                // Already migrated into the page.
                out.push_encoded(page.record_bytes(slot))?;
            } else {
                apply_op(key, op, Some(page.record_bytes(slot)), schema, out)?;
            }
            slot += 1;
        }
    }
    // The due updates past the last record.
    while updates.peek_key().is_some_and(due) {
        let (key, _, value) = updates.next_lent().expect("peeked");
        consumed += 1;
        let op = OpRef::parse(value).ok_or(MasmError::Corrupt("run entry"))?;
        apply_op(key, op, None, schema, out)?;
    }
    Ok(consumed)
}

/// Pack what applying `op` at `key` to the encoded record `base` (none
/// in a gap) leaves into `out`: [`UpdateRecord::apply_to`] on bytes.
fn apply_op(
    key: Key,
    op: OpRef<'_>,
    base: Option<&[u8]>,
    schema: &Schema,
    out: &mut PageChunk,
) -> MasmResult<()> {
    match (op, base) {
        (OpRef::Insert(payload) | OpRef::Replace(payload), _) => out.push_payload(key, payload)?,
        (OpRef::Modify(patches), Some(base)) => {
            let payload = &mut out.push_encoded(base)?[RECORD_HEADER..];
            for (field, value) in patches {
                if !schema.try_set(payload, field as usize, value) {
                    return Err(MasmError::Corrupt("run entry"));
                }
            }
        }
        (OpRef::Delete, _) | (OpRef::Modify(_), None) => {}
    }
    Ok(())
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

    /// Page `p` holds `fill` records at keys `1000 p + 10, 1000 p + 20,
    /// …` and carries timestamp `page_ts`.
    fn old_pages(pages: &[(usize, u64)]) -> Vec<Page> {
        pages
            .iter()
            .enumerate()
            .map(|(p, &(fill, page_ts))| {
                let mut page = Page::new(PAGE);
                page.set_timestamp(page_ts);
                for slot in 1..=fill as u64 {
                    let key = 1000 * p as u64 + 10 * slot;
                    assert!(page.append(&Record::new(key, wide_payload(key as u32))));
                }
                assert_eq!(
                    page.fits(&Record::new(Key::MAX, wide_payload(0))),
                    fill < FULL
                );
                page
            })
            .collect()
    }

    /// Update `((page, slot, step), kind, ts, v)` of the proptests: on a
    /// record, in a gap of a page, in the gap between pages, past the
    /// chunk's last record or past the chunk's last page.
    fn placed_update(
        ((page, slot, step), kind, ts, v): ((u64, u64, u64), u8, u64, u32),
    ) -> UpdateRecord {
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
    }

    /// What a migration's run merge lends: folded updates as the bytes
    /// of their encoded operations.
    struct Lend {
        entries: Vec<(Key, Timestamp, Vec<u8>)>,
        next: usize,
    }

    impl Lend {
        fn of(updates: &[UpdateRecord]) -> Lend {
            Lend {
                entries: updates
                    .iter()
                    .map(|u| (u.key, u.ts, u.encode_value()))
                    .collect(),
                next: 0,
            }
        }
    }

    impl LentUpdates for Lend {
        fn peek_key(&mut self) -> Option<Key> {
            self.entries.get(self.next).map(|e| e.0)
        }

        fn next_lent(&mut self) -> Option<(Key, Timestamp, &[u8])> {
            let (key, ts, value) = self.entries.get(self.next)?;
            self.next += 1;
            Some((*key, *ts, value))
        }
    }

    /// The pages of `old`, as one chunk.
    fn chunk_of(old: &[Page]) -> PageChunk {
        PageChunk::from_bytes(
            PAGE,
            old.iter().flat_map(|p| p.as_bytes().to_vec()).collect(),
        )
    }

    /// The pages packed from `MergeDataUpdates` over the records of
    /// `old` and `updates`, decoded.
    fn record_join(old: &[Page], updates: Vec<UpdateRecord>, stamp: u64) -> Vec<u8> {
        let data = old.iter().flat_map(|page| {
            let page_ts = page.timestamp();
            page.records().map(move |record| (record, page_ts))
        });
        packed(
            MergeDataUpdates::new(data, updates.into_iter(), wide_schema()),
            stamp,
        )
    }

    /// A reused output buffer, with another chunk's pages in it.
    fn dirty_out(stamp: u64) -> PageChunk {
        let mut out = PageChunk::from_bytes(PAGE, vec![0xA5; 3 * PAGE]);
        out.reset(stamp);
        out
    }

    /// `value`, an encoded operation, damaged by `kind` in one of its
    /// fields: a flipped byte, its tag, a cut, trailing bytes, other
    /// bytes altogether, its `u16` length, a patch count, a field id,
    /// or a patch one byte short of its field's width (which still
    /// decodes).
    fn damage(value: &mut Vec<u8>, (kind, pos, byte, extra): (u8, u16, u8, Vec<u8>)) {
        if value.is_empty() {
            // Damaged to nothing before.
            return value.push(byte);
        }
        let pos = pos as usize % value.len();
        let modify = value[0] == 2;
        match kind {
            0 => value[pos] ^= byte.max(1),
            1 => value[0] = byte % 6,
            2 => value.truncate(pos),
            3 if extra.is_empty() => value.push(byte),
            3 => value.extend(extra),
            4 => *value = extra,
            5 => {
                let at = if modify { 4 } else { 1 };
                if value.len() >= at + 2 {
                    value[at..at + 2].copy_from_slice(&(pos as u16 % 64).to_le_bytes());
                }
            }
            6 if modify => value[1] = byte % 4,
            7 if modify => value[2..4].copy_from_slice(&(byte as u16 % 4).to_le_bytes()),
            8 if modify && value[1] == 1 => {
                let short = value.len() as u16 - 7;
                value[4..6].copy_from_slice(&short.to_le_bytes());
                value.pop();
            }
            _ => value[pos] ^= 0x80,
        }
    }

    /// One run of `entries` (sorted by key, then timestamp), on a
    /// device of its own, as a query's run scan reporting to `failures`.
    fn run_scan(entries: &[(Key, Timestamp, Vec<u8>)], failures: &ScanFailures) -> QuerySource {
        let clock = masm_storage::SimClock::new();
        let ssd = SimDevice::in_memory(masm_storage::DeviceProfile::ssd_x25e(), clock.clone());
        let session = SessionHandle::fresh(clock);
        let mut builder = RunBuilder::new(MasmConfig::small_for_tests().blockrun_config());
        for (key, ts, value) in entries {
            builder.append_entry(masm_blockrun::Entry::new(*key, *ts, value.clone()));
        }
        let (meta, bytes) = builder.finish();
        let run = SortedRun::from_meta(1, 1, meta);
        crate::run::write_built(&session, &ssd, &run, &bytes).unwrap();
        let scan = RunScan::with_cache(ssd, session, Arc::new(run), None, 0, Key::MAX);
        QuerySource::Run(Box::new(scan.reporting_to(failures.clone())))
    }

    /// Where the byte join of a merged scan stops, walking the keys of
    /// every source in order: at the pull of a key one of whose versions
    /// does not decode, or whose visible versions do not fold (`Pull`,
    /// naming the last key before it that had a visible update), or at
    /// the record a folded update does not fit (`Apply`).
    #[derive(Debug, Clone, Copy)]
    enum Cut {
        Pull(Option<Key>),
        Apply(Key),
    }

    fn first_cut(
        entries: &[(Key, Timestamp, Vec<u8>)],
        data: &[(Record, u64)],
        as_of: Timestamp,
        schema: &Schema,
    ) -> Option<Cut> {
        let mut by_key: std::collections::BTreeMap<Key, Vec<(Timestamp, &[u8])>> =
            Default::default();
        for (key, ts, value) in entries {
            by_key.entry(*key).or_default().push((*ts, value));
        }
        let mut last_visible = None;
        for (key, mut versions) in by_key {
            versions.sort_by_key(|&(ts, _)| ts);
            let decoded: Option<Vec<UpdateRecord>> = versions
                .iter()
                .map(|&(ts, value)| UpdateRecord::decode_value(key, ts, value))
                .collect();
            let Some(decoded) = decoded else {
                return Some(Cut::Pull(last_visible));
            };
            let mut folded: Option<UpdateRecord> = None;
            for u in decoded.into_iter().filter(|u| u.ts <= as_of) {
                folded = match folded {
                    None => Some(u),
                    Some(earlier) => match earlier.fold(&u, schema) {
                        Some(both) => Some(both),
                        None => return Some(Cut::Pull(last_visible)),
                    },
                };
            }
            let Some(folded) = folded else {
                continue;
            };
            if let Some((record, page_ts)) = data.iter().find(|(r, _)| r.key == key) {
                let applies = folded.ts > *page_ts;
                if applies && folded.try_apply_to(Some(record.clone()), schema).is_none() {
                    return Some(Cut::Apply(key));
                }
            }
            last_visible = Some(key);
        }
        None
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
            let old = old_pages(&pages);
            let mut updates: Vec<UpdateRecord> = ops.into_iter().map(placed_update).collect();
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
            let want = record_join(&old, updates[..due].to_vec(), stamp);

            let mut out = dirty_out(stamp);
            let mut stream = Lend::of(&updates);
            let consumed =
                join_chunk(&chunk_of(&old), &mut stream, last_chunk, &wide_schema(), &mut out)
                    .unwrap();
            proptest::prop_assert_eq!(consumed as usize, due);
            proptest::prop_assert_eq!(
                stream.next_lent().map(|(k, t, v)| (k, t, v.to_vec())),
                updates.get(due).map(|u| (u.key, u.ts, u.encode_value()))
            );
            proptest::prop_assert!(
                out.as_bytes() == want,
                "{} pages packed, {} wanted",
                out.len(),
                want.len() / PAGE
            );
        }

        /// `join_chunk` applies operations as bytes exactly as
        /// `decode_value` + `apply_to` do, on valid values and on
        /// damaged ones: every flip, cut and extension of a value's
        /// fields (`damage`), and arbitrary bytes. Either it packs the
        /// pages of the record join over the decoded updates, byte for
        /// byte, or — where one due value does not decode, or a
        /// `Modify` it applies names a field the schema lacks or has
        /// the wrong width, which `Schema::set` would panic on — it is
        /// `Corrupt("run entry")`. It never panics.
        #[test]
        fn join_chunk_applies_bytes_as_the_decoded_updates_would(
            pages in proptest::collection::vec((1..=FULL, 0u64..=10), 1..=4),
            ops in proptest::collection::vec(
                ((0u64..6, 0u64..16, 0u64..3), 0u8..5, 1u64..=10, proptest::any::<u32>()),
                1..32,
            ),
            damaged in proptest::collection::vec(
                (
                    0usize..64,
                    (0u8..10, proptest::any::<u16>(), proptest::any::<u8>(),
                     proptest::collection::vec(proptest::any::<u8>(), 0..24)),
                ),
                0..3,
            ),
            stamp in 0u64..100,
            last_chunk in proptest::any::<bool>(),
        ) {
            let schema = wide_schema();
            let old = old_pages(&pages);
            let mut updates: Vec<UpdateRecord> = ops.into_iter().map(placed_update).collect();
            updates.sort_by_key(|u| u.key);
            updates.dedup_by_key(|u| u.key);
            let mut stream = Lend::of(&updates);
            for (at, how) in damaged {
                let n = stream.entries.len();
                damage(&mut stream.entries[at % n].2, how);
            }

            let chunk_max = old.last().unwrap().max_key().unwrap();
            let due: Vec<&(Key, Timestamp, Vec<u8>)> = stream
                .entries
                .iter()
                .take_while(|(key, _, _)| last_chunk || *key <= chunk_max)
                .collect();
            let decoded: Option<Vec<UpdateRecord>> = due
                .iter()
                .map(|(key, ts, value)| UpdateRecord::decode_value(*key, *ts, value))
                .collect();
            // A patch `Schema::set` would panic on, applied to a record
            // newer than its page.
            let misfit = |u: &UpdateRecord| {
                let UpdateOp::Modify(patches) = &u.op else {
                    return false;
                };
                let applied = old
                    .iter()
                    .any(|p| p.find(u.key).is_ok() && p.timestamp() < u.ts);
                applied
                    && patches.iter().any(|p| {
                        schema.fields().get(p.field as usize).is_none_or(|f| f.ty.width() != p.value.len())
                    })
            };
            let want = decoded.filter(|us| !us.iter().any(misfit));

            let mut out = dirty_out(stamp);
            let got = join_chunk(&chunk_of(&old), &mut stream, last_chunk, &schema, &mut out);
            match want {
                Some(us) => {
                    proptest::prop_assert_eq!(got.unwrap() as usize, us.len());
                    proptest::prop_assert!(out.as_bytes() == record_join(&old, us, stamp));
                }
                None => proptest::prop_assert!(
                    matches!(got, Err(MasmError::Corrupt("run entry"))),
                    "{got:?}"
                ),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 1024,
            ..proptest::ProptestConfig::default()
        })]

        /// The read-side twin of the test above: the join a merged scan
        /// makes — heap records one at a time, updates lent as the bytes
        /// of their operations by a `RunUpdates` over a `RunMerge` of
        /// run scans and an in-memory source — hands out exactly the
        /// records of `MergeDataUpdates` over the decoded records and
        /// `MergeUpdates` over the decoded updates. Keys carry several
        /// versions across three runs and the in-memory source; the
        /// timestamps of pages, versions and the query share one small
        /// range, so a version is as often invisible, or already in its
        /// page, as not. Run entries are damaged as above (and the
        /// in-memory source takes a damaged value where it still
        /// decodes): where a version does not decode, visible versions
        /// do not fold, or a folded update does not fit its record, the
        /// join hands out the record join's records up to that point
        /// (`first_cut`) and ends with `Corrupt("run entry")`. It never
        /// panics.
        #[test]
        fn byte_join_hands_out_the_records_of_the_record_join(
            pages in proptest::collection::vec((1..=FULL, 0u64..=10), 1..=4),
            ops in proptest::collection::vec(
                (((0u64..6, 0u64..16, 0u64..3), 0u8..5, 1u64..=20, proptest::any::<u32>()), 0usize..4),
                0..48,
            ),
            damaged in proptest::collection::vec(
                (
                    0usize..64,
                    (0u8..10, proptest::any::<u16>(), proptest::any::<u8>(),
                     proptest::collection::vec(proptest::any::<u8>(), 0..24)),
                ),
                0..3,
            ),
            as_of in 0u64..=22,
        ) {
            let schema = wide_schema();
            let data: Vec<(Record, u64)> = old_pages(&pages)
                .iter()
                .flat_map(|page| page.records().map(|r| (r, page.timestamp())).collect::<Vec<_>>())
                .collect();
            // One version per (key, timestamp); sources 0–2 are runs, 3
            // the in-memory source.
            let mut placed: Vec<(usize, UpdateRecord)> = ops
                .into_iter()
                .map(|(op, source)| (source, placed_update(op)))
                .collect();
            placed.sort_by_key(|(_, u)| (u.key, u.ts));
            placed.dedup_by_key(|(_, u)| (u.key, u.ts));
            let mut entries: Vec<(usize, Key, Timestamp, Vec<u8>)> = placed
                .iter()
                .map(|(source, u)| (*source, u.key, u.ts, u.encode_value()))
                .collect();
            for (at, how) in damaged {
                if !entries.is_empty() {
                    let n = entries.len();
                    damage(&mut entries[at % n].3, how);
                }
            }
            let mut mem: Vec<UpdateRecord> = Vec::new();
            entries.retain(|(source, key, ts, value)| {
                if *source < 3 {
                    return true;
                }
                let original = placed.iter().find(|(_, u)| (u.key, u.ts) == (*key, *ts));
                let decoded = UpdateRecord::decode_value(*key, *ts, value);
                mem.push(decoded.unwrap_or_else(|| original.unwrap().1.clone()));
                false
            });

            // The record join, over what decodes.
            let mut streams: Vec<UpdateStream> = (0..3)
                .map(|source| {
                    let run: Vec<UpdateRecord> = entries
                        .iter()
                        .filter(|e| e.0 == source)
                        .filter_map(|(_, key, ts, value)| UpdateRecord::decode_value(*key, *ts, value))
                        .collect();
                    stream(run)
                })
                .collect();
            streams.push(stream(mem.clone()));
            let merged = MergeUpdates::new(streams, schema.clone(), as_of);
            let want: Vec<Record> =
                MergeDataUpdates::new(data.clone().into_iter(), merged, schema.clone()).collect();
            let mut all: Vec<(Key, Timestamp, Vec<u8>)> =
                entries.iter().map(|(_, key, ts, value)| (*key, *ts, value.clone())).collect();
            all.extend(mem.iter().map(|u| (u.key, u.ts, u.encode_value())));
            let cut = first_cut(&all, &data, as_of, &schema);

            // The byte join, in the source order of a query.
            let failures = ScanFailures::default();
            let mut sources: Vec<QuerySource> = (0..3)
                .filter_map(|source| {
                    let run: Vec<(Key, Timestamp, Vec<u8>)> = entries
                        .iter()
                        .filter(|e| e.0 == source)
                        .map(|(_, key, ts, value)| (*key, *ts, value.clone()))
                        .collect();
                    (!run.is_empty()).then(|| run_scan(&run, &failures))
                })
                .collect();
            let n = mem.len();
            sources.push(QuerySource::Mem(MemUpdates::new(Arc::new(mem), 0..n)));
            let updates = RunUpdates::new(RunMerge::new(sources), schema.clone(), as_of, failures.clone());
            let mut join = Join::new(updates, schema.clone(), failures.clone());
            let (mut pairs, mut held) = (data.into_iter(), None);
            let mut cursor = Pairs { pairs: &mut pairs, held: &mut held };
            let got: Vec<Record> = std::iter::from_fn(|| join.step(&mut cursor, &mut ())).collect();
            let ended = failures.check();

            let handed_out: Vec<Record> = match cut {
                None => want,
                Some(Cut::Pull(last)) => want.into_iter().filter(|r| Some(r.key) <= last).collect(),
                Some(Cut::Apply(key)) => want.into_iter().filter(|r| r.key < key).collect(),
            };
            proptest::prop_assert_eq!(got, handed_out, "cut {:?}", cut);
            match cut {
                None => proptest::prop_assert!(ended.is_ok(), "{ended:?}"),
                Some(_) => proptest::prop_assert!(
                    matches!(ended, Err(MasmError::Corrupt("run entry"))),
                    "{ended:?}"
                ),
            }
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
