//! Allocation budgets of the four hot paths and of a cold run block, on
//! exact counts.
//!
//! * A point lookup allocates what it returns — the record's payload —
//!   and what decoding an update that applies to the key takes: a run
//!   that lacks the key, the heap page and the pin cost nothing.
//! * A hot-cache merged scan allocates the payload of each record it
//!   returns, what decoding an update's operation takes, and a constant
//!   per block and per heap batch — no page copies, no entry clones, no
//!   payload clones.
//! * Ingest allocates a constant per run block and per flush, nothing
//!   per update: the update moves into the buffer, its WAL frame is
//!   encoded into the thread's scratch, the seal sorts a rank per
//!   update in one buffer, and the run is built straight from the
//!   sorted updates into the flat block buffer.
//! * A migration allocates per update it applies and a constant per
//!   rewrite chunk, nothing per heap record: a chunk is one buffer in
//!   and one out, both reused, and a record no update touches moves
//!   from one to the other as its encoded bytes.
//! * A run block read cold is one buffer: what it costs to fetch and
//!   index is a constant, whether it holds 70 updates or 1,200.
//!
//! A binary of its own, because the counting allocator is process-wide;
//! it counts per thread, so the tests (each single-threaded, inline
//! maintenance) can run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use masm_blockrun::BloomFilter;
use masm_core::config::MasmConfig;
use masm_core::membuf::UpdateBuffer;
use masm_core::run::{lookup_in_run, write_run, RunScan};
use masm_core::update::{FieldPatch, UpdateOp, UpdateRecord};
use masm_core::IndexGranularity;
use masm_model::{flash, payload, value, Model, Op, Table};
use masm_pagestore::Key;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates, so the allocator may.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a thread-local statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread's last frees and allocations may come
        // after its thread-locals are gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A table with inline maintenance loaded with `records` rows, and its
/// model.
fn loaded(cfg: MasmConfig, records: u64) -> (Table, Model) {
    let t = Table::new(cfg);
    let model = t.load(records);
    (t, model)
}

/// Update `i` of the benchmark's mix: a third each of inserts (odd
/// keys), deletes and single-field modifies, spread over the table.
fn mixed_update(i: u64, records: u64) -> (Key, UpdateOp) {
    let slot = i * 7919 % records;
    match i % 3 {
        0 => (slot * 2 + 1, UpdateOp::Insert(payload(i as u32))),
        1 => (slot * 2, UpdateOp::Delete),
        _ => {
            let value = (i as u32).to_le_bytes().to_vec();
            (
                slot * 2,
                UpdateOp::Modify(vec![FieldPatch { field: 0, value }]),
            )
        }
    }
}

const RECORDS: u64 = 40_000; // four 1 MiB heap batches
const UPDATES: u64 = 6_000;

/// The hot-cache fixture: `RECORDS` rows, `UPDATES` mixed updates in
/// six runs of 1,000, an empty buffer, and — after one scan of
/// everything, whose record count is returned — every run block in
/// tier 1 of a cache big enough to keep them all.
fn hot_table() -> (Table, Model, u64) {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.block_cache_bytes = 64 << 20;
    let (mut t, mut model) = loaded(cfg, RECORDS);
    for i in 0..UPDATES {
        let (key, op) = mixed_update(i, RECORDS);
        t.step(&mut model, &Op::Put(key, op));
        if i % 1_000 == 999 {
            t.flush().unwrap();
        }
    }
    let stats = t.stats();
    assert_eq!(stats.buffer.updates, 0, "every update is in a run");
    assert!(stats.runs.count >= 6);
    let records = t.rows(0, Key::MAX).len() as u64;
    assert!(t.engine().cache_stats().insertions > 0);
    (t, model, records)
}

#[test]
fn hot_scan_allocates_per_record_returned_and_per_update_decoded() {
    let (t, _, warm) = hot_table();
    let engine = t.engine();
    let runs = engine.stats().runs.count;
    let blocks = engine.cache_stats().insertions;
    let scan_all = || t.scan(0, Key::MAX).unwrap().count() as u64;

    let before = allocations();
    let returned = scan_all();
    let allocations = allocations() - before;
    assert_eq!(returned, warm);
    assert_eq!(engine.cache_stats().insertions, blocks, "the scan ran hot");

    let heap_batches = RECORDS * 102 / (1 << 20) + 1;
    let budget = returned + UPDATES * 14 / 10 + 2 * blocks + 8 * heap_batches + 64 * runs + 256;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {returned} records returned and {UPDATES} updates \
         ({blocks} blocks, {heap_batches} heap batches, {runs} runs): budget {budget}"
    );
    eprintln!(
        "{allocations} allocations, budget {budget}: {returned} records, {UPDATES} updates, \
         {blocks} blocks, {heap_batches} heap batches, {runs} runs"
    );
}

#[test]
fn get_allocates_only_what_it_returns() {
    const GETS: u64 = 1_000;
    let (t, model, _) = hot_table();
    let (engine, session) = (t.engine(), &t.session);
    let blocks = engine.cache_stats().insertions;
    let untouched = |k: &Key| model.history(*k).is_empty();
    let in_heap_untouched = (0..RECORDS).map(|i| i * 2).find(untouched);
    let nowhere = (0..RECORDS).map(|i| i * 2 + 1).find(untouched);
    let modified_once =
        (0..2 * RECORDS).find(|&k| matches!(model.history(k), [(_, UpdateOp::Modify(_))]));
    let (in_heap_untouched, nowhere, modified_once) = (
        in_heap_untouched.unwrap(),
        nowhere.unwrap(),
        modified_once.unwrap(),
    );

    // Allocations of `GETS` lookups of `key`, each answering `found`.
    let allocations_of = |key: Key, found: bool| {
        assert_eq!(engine.get(session, key).unwrap().is_some(), found);
        let before = allocations();
        for _ in 0..GETS {
            let record = engine.get(session, key).unwrap();
            assert_eq!(record.is_some(), found);
        }
        allocations() - before
    };
    for buffered in [false, true] {
        // In the heap, no cached update: the payload of the record.
        assert_eq!(allocations_of(in_heap_untouched, true), GETS);
        // In no run, not in the heap: nothing at all — not for the pin,
        // not for the runs that lack the key, not for the page.
        assert_eq!(allocations_of(nowhere, false), 0);
        if !buffered {
            // From here on the buffer is not empty.
            let value = 77u32.to_le_bytes().to_vec();
            let op = UpdateOp::Modify(vec![FieldPatch { field: 0, value }]);
            engine.apply_update(session, modified_once, op).unwrap();
        }
    }
    // One `Modify` in a run and one in the buffer, seven allocations:
    // the payload (1); the list of updates to apply (1); the run's
    // update decoded from its cached block — patch list and patch value
    // (2); the buffer's snapshot (1) and its update cloned out of the
    // buffer — patch list and patch value (2).
    assert_eq!(allocations_of(modified_once, true), 7 * GETS);
    let record = engine.get(session, modified_once).unwrap().unwrap();
    assert_eq!(value(&record), 77);
    assert_eq!(engine.cache_stats().insertions, blocks, "the gets ran hot");
}

#[test]
fn ingest_allocates_per_block_and_per_flush_not_per_update() {
    const RECORDS: u64 = 10_000;
    const UPDATES: u64 = 20_000;

    // The benchmark's geometry: 4 KiB blocks, inline maintenance.
    let mut cfg = MasmConfig::small_for_tests();
    cfg.index_granularity = IndexGranularity::Fine;
    let (t, _) = loaded(cfg, RECORDS);

    // Built (and the payloads allocated) before the count starts: the
    // caller's operation is the one allocation an update owns, and the
    // engine moves it.
    let updates: Vec<(Key, UpdateOp)> = (0..UPDATES).map(|i| mixed_update(i, RECORDS)).collect();

    let before = allocations();
    for (key, op) in updates {
        t.put(key, op).unwrap();
    }
    let allocations = allocations() - before;

    let stats = t.stats();
    let flushes = stats.runs.count;
    assert!(flushes >= 5, "{flushes} inline flushes");
    assert!(
        allocations * 100 <= UPDATES * 6,
        "{allocations} allocations for {UPDATES} updates through {flushes} flushes: \
         more than 0.06 per update"
    );
    eprintln!(
        "{allocations} allocations for {UPDATES} updates through {flushes} flushes \
         ({:.3} per update)",
        allocations as f64 / UPDATES as f64
    );
}

/// Sealing a buffer sorts ranks, not records: the ranks, the sorted
/// batch and the next fill's buffer — three allocations, whatever the
/// size — and none at all for arrivals already in order.
#[test]
fn a_seal_sorts_with_a_constant_number_of_allocations() {
    let drain = |n: u64, shuffled: bool| {
        let mut buffer = UpdateBuffer::new(1 << 30);
        for i in 0..n {
            let key = if shuffled { i * 7919 % n } else { i };
            buffer.push(UpdateRecord::new(i + 1, key, UpdateOp::Delete));
        }
        let before = allocations();
        let sorted = buffer.drain_sorted();
        let allocations = allocations() - before;
        assert!(sorted.windows(2).all(|w| w[0].key < w[1].key));
        assert_eq!(sorted.len() as u64, n);
        allocations
    };
    assert_eq!(drain(1_000, true), 3);
    assert_eq!(drain(64_000, true), 3);
    assert_eq!(
        drain(64_000, false),
        1,
        "in order: only the next fill's buffer"
    );
}

#[test]
fn migration_allocates_per_update_not_per_record() {
    const SMALL: u64 = 20_000; // 513 heap pages: one rewrite chunk
    const LARGE: u64 = 80_000; // 2,052 heap pages: three
    const UPDATES: u64 = 2_000;
    // What one more chunk of untouched records may allocate: its read
    // buffer's turn in the swap, the old physical offsets, the new
    // minimum keys, the `MapSplice` frame, and a page-map, index or
    // free-list growth step.
    const PER_CHUNK: u64 = 8;

    // The same updates — all to keys of the small table's range — into
    // a table of `records`: allocations of the migration, and chunks.
    let migrate = |records: u64| {
        let (t, _) = loaded(MasmConfig::small_for_tests(), records);
        for i in 0..UPDATES {
            let (key, op) = mixed_update(i, SMALL);
            t.put(key, op).unwrap();
        }
        t.flush().unwrap();
        let heap = t.engine().heap();
        let pages = heap.num_pages() as u64;
        let before = allocations();
        let report = t.engine().migrate(&t.session).unwrap();
        let allocations = allocations() - before;
        assert_eq!(report.updates_applied, UPDATES);
        assert_eq!(heap.record_count(), records);
        (allocations, pages.div_ceil(1024))
    };
    let (small, small_chunks) = migrate(SMALL);
    let (large, large_chunks) = migrate(LARGE);
    assert_eq!((small_chunks, large_chunks), (1, 3));
    let extra = large.abs_diff(small);
    assert!(
        extra <= PER_CHUNK * (large_chunks - small_chunks),
        "{small} allocations to migrate {UPDATES} updates into {SMALL} records, {large} into \
         {LARGE}: {extra} more for {} more records",
        LARGE - SMALL
    );
    eprintln!(
        "{small} allocations into {SMALL} records ({small_chunks} chunk), {large} into {LARGE} \
         ({large_chunks} chunks)"
    );
}

/// Nothing a cold read does to a run block allocates per entry: the
/// block is the codec's buffer, an offset table and an `Arc`. The same
/// updates in 4 KiB and in 64 KiB blocks — some 70 and some 1,200 to a
/// block — cost the same per block, read uncached by a scan or by the
/// point lookup of a key the bloom filter cannot rule out. As owned
/// entries a block cost one more allocation per entry it held.
#[test]
fn a_cold_block_costs_three_allocations_not_one_per_entry() {
    const UPDATES: u64 = 12_000;
    // The stored bytes off the device, and the block: the buffer the
    // codec decodes them into, its offsets, its `Arc`.
    const PER_BLOCK: u64 = 4;
    const PER_SCAN: u64 = 32;

    let mut updates: Vec<UpdateRecord> = (0..UPDATES)
        .map(|i| {
            let (key, op) = mixed_update(i, UPDATES);
            // Keys that are multiples of four: the others are absent.
            UpdateRecord::new(i + 1, key * 4, op)
        })
        .collect();
    updates.sort_by_key(|u| (u.key, u.ts));
    // What decoding the updates themselves takes, block or no block.
    let decoding: u64 = updates
        .iter()
        .map(|u| match &u.op {
            UpdateOp::Insert(_) | UpdateOp::Replace(_) => 1,
            UpdateOp::Delete => 0,
            UpdateOp::Modify(patches) => 1 + patches.len() as u64,
        })
        .sum();

    let mut per_block_seen = Vec::new();
    for granularity in [IndexGranularity::Fine, IndexGranularity::Coarse] {
        let mut cfg = MasmConfig::small_for_tests();
        cfg.index_granularity = granularity;
        let (ssd, session) = flash();
        let run = Arc::new(write_run(&session, &ssd, &cfg, 1, 0, 1, &updates).unwrap());
        let blocks = run.meta.zones.len() as u64;
        let per_block = UPDATES / blocks;

        let scan = RunScan::with_cache(
            ssd.clone(),
            session.clone(),
            Arc::clone(&run),
            None,
            0,
            Key::MAX,
        );
        let before = allocations();
        let scanned = scan.count() as u64;
        let scan_allocations = allocations() - before;
        assert_eq!(scanned, UPDATES);
        let overhead = scan_allocations - decoding;
        assert!(
            overhead <= PER_BLOCK * blocks + PER_SCAN,
            "{granularity:?}: {scan_allocations} allocations to scan {UPDATES} updates in \
             {blocks} blocks of ~{per_block}: {overhead} beyond the {decoding} of decoding them"
        );

        // An absent key inside the run's bounds that the filter lets
        // through: the lookup reads its block, finds nothing.
        let absent = (0..4 * UPDATES)
            .filter(|k| k % 4 != 0)
            .find(|&k| run.meta.might_contain(k, BloomFilter::hashes_of(k)))
            .expect("a false positive among 36,000 absent keys");
        let hashes = BloomFilter::hashes_of(absent);
        let before = allocations();
        lookup_in_run(&session, &ssd, &run, None, absent, hashes, |u| {
            panic!("{absent} is absent, found {u:?}")
        })
        .unwrap();
        let lookup_allocations = allocations() - before;
        assert_eq!(
            lookup_allocations, PER_BLOCK,
            "{granularity:?}: a cold lookup in a block of ~{per_block}"
        );
        eprintln!(
            "{granularity:?}: {blocks} blocks of ~{per_block}: scan {scan_allocations} \
             allocations ({decoding} decoding, {overhead} beyond), cold lookup \
             {lookup_allocations}"
        );
        per_block_seen.push(per_block);
    }
    assert!(
        per_block_seen[1] > 10 * per_block_seen[0],
        "updates to a block: {per_block_seen:?}"
    );
}
