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
//! Every k-way merge plays one tournament, a `LoserTree` over the
//! sources' `(key, ts)`. A query merges boxed update streams with it
//! ([`KWayUpdates`], [`MergeUpdates`]). The jobs that read whole runs —
//! a migration and the merge segments of a compaction — merge concrete
//! [`RunScan`]s with it instead (`RunMerge`) and never build an
//! [`UpdateRecord`] per entry: the winner's operation is copied, as the
//! bytes of its run entry, into a reused buffer, a compaction appends
//! those bytes to its output run, and a migration's `join_chunk`
//! applies them to page bytes (`RunUpdates` folds a key's versions
//! first). Only two visible versions of one key that must fold are
//! decoded, folded and re-encoded (`fold_values`).
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
use crate::update::{OpRef, UpdateRecord};

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

/// The k-way merge of whole run scans, lending: the same tournament and
/// the same order as [`KWayUpdates`], over concrete [`RunScan`]s, and no
/// [`UpdateRecord`] — an entry's value is copied, as the bytes of its
/// encoded operation, into a buffer the caller reuses. The winner's
/// value is taken and its scan advanced at the point [`KWayUpdates`]
/// advances its stream, so every device read happens in the same order.
pub(crate) struct RunMerge {
    scans: Vec<RunScan>,
    tree: LoserTree,
}

impl RunMerge {
    /// Merge `scans`, fetching the first block of each, in order.
    pub(crate) fn new(mut scans: Vec<RunScan>) -> Self {
        let heads: Vec<Option<(Key, Timestamp)>> = scans.iter_mut().map(RunScan::head).collect();
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

/// `Merge_updates` over run scans, lending: the folded stream of
/// [`MergeUpdates`] — every version of a key visible at `as_of` folded
/// into one — out of a [`RunMerge`]. A key with one visible version
/// (the common case) hands out that entry's bytes as they were copied
/// out of its block; only two visible versions of one key build
/// [`UpdateRecord`]s ([`fold_values`]). A fold that cannot be made
/// reports [`MasmError::Corrupt`] to the job's slot and ends the
/// stream.
pub(crate) struct RunUpdates {
    merge: RunMerge,
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

impl RunUpdates {
    /// Fold `merge`'s entries visible at `as_of`; a failure goes to
    /// `failures`, the slot its scans report to.
    pub(crate) fn new(
        merge: RunMerge,
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
    fn pull(&mut self) {
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

impl LentUpdates for RunUpdates {
    fn peek_key(&mut self) -> Option<Key> {
        self.pull();
        self.head.map(|(key, _)| key)
    }

    fn next_lent(&mut self) -> Option<(Key, Timestamp, &[u8])> {
        self.pull();
        let (key, ts) = self.head.take()?;
        Some((key, ts, &self.value))
    }
}

/// `Merge_updates`: k-way merge of sorted update streams, folding all
/// updates to one key (visible at `as_of`) into a single update.
pub struct MergeUpdates {
    inner: KWayUpdates,
    schema: Schema,
    as_of: Timestamp,
    /// Where a fold that does not fit is reported.
    failures: ScanFailures,
}

impl MergeUpdates {
    /// Merge `streams` (each sorted by `(key, ts)`), keeping only updates
    /// with `ts ≤ as_of`.
    pub fn new(streams: Vec<UpdateStream>, schema: Schema, as_of: Timestamp) -> Self {
        MergeUpdates {
            inner: KWayUpdates::new(streams),
            schema,
            as_of,
            failures: ScanFailures::default(),
        }
    }

    /// Report a `modify` that does not fit the payload it folds into —
    /// a run entry nothing checked at the door — to `failures` as
    /// `Corrupt("run entry")`, instead of to a slot of its own; the
    /// entry is dropped.
    pub(crate) fn reporting_to(mut self, failures: ScanFailures) -> Self {
        self.failures = failures;
        self
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
                    Some(cur) => match cur.fold(&nxt, &self.schema) {
                        Some(folded) => folded,
                        None => {
                            self.failures.report(MasmError::Corrupt("run entry"));
                            cur
                        }
                    },
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
    /// Where an update that does not fit its record is reported.
    failures: ScanFailures,
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

    /// `update` applied to `base`; an update that does not fit the
    /// record is reported and yields nothing.
    fn apply(&self, update: UpdateRecord, base: Option<Record>) -> Option<Record> {
        update.try_apply_to(base, &self.schema).unwrap_or_else(|| {
            self.failures.report(MasmError::Corrupt("run entry"));
            None
        })
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
                if let Some(inserted) = self.apply(update, None) {
                    emit(inserted);
                }
                continue;
            }
            let joined = if update.ts > page_ts {
                self.apply(update, Some(record))
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
            if let Some(inserted) = self.apply(update, None) {
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
                failures: ScanFailures::default(),
                next: None,
            },
            out: VecDeque::new(),
            done: false,
        }
    }

    /// Report an update that does not fit the record it patches — a
    /// run entry nothing checked at the door — to `failures` as
    /// `Corrupt("run entry")`, instead of to a slot of its own.
    pub(crate) fn reporting_to(mut self, failures: ScanFailures) -> Self {
        self.join.failures = failures;
        self
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
