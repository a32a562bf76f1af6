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
//! * A migration allocates a constant per rewrite chunk, nothing per
//!   heap record: a chunk is one buffer in and one out, both reused,
//!   and a record no update touches moves from one to the other as its
//!   encoded bytes. Its run side allocates per run block it reads and
//!   per pair of versions of one key it folds, nothing per update: an
//!   update's operation is copied out of its block into a reused buffer
//!   and applied to the page bytes as it is.
//! * A run block read cold is one buffer: what it costs to fetch and
//!   index is a constant, whether it holds 70 updates or 1,200.
//! * A bulk load streams the table through one reused 1 MiB page
//!   buffer: its allocations do not grow with the pages it writes, and
//!   what it holds at its peak is that buffer and the page map and
//!   index, not the table.
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
use masm_model::{flash, payload, rows, value, Model, Op, Table};
use masm_pagestore::{HeapConfig, Key, Record, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor: touching them never
    // allocates, so the allocator may.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes the thread allocated minus bytes it freed (memory freed by
    // another thread than the one that allocated it can make it
    // negative), and its high-water mark since `reset_peak`.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Restart the calling thread's live-bytes high-water mark at what it
/// has live now; that level.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The calling thread's live-bytes high-water mark since `reset_peak`.
fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// Count `bytes` more (or, negative, fewer) live on the calling thread.
fn grow_live(bytes: i64) {
    // `try_with`: a thread's last frees and allocations may come after
    // its thread-locals are gone.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are thread-local statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        grow_live(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// One allocation, as the default `realloc` (a fresh block, a copy,
    /// a free) counts it; live bytes move by the difference in size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        grow_live(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract;
        // `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
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

/// The run side of a migration allocates per run block it reads and per
/// pair of versions of one key it folds, not per update: an update's
/// operation is copied out of its block into one of two reused buffers
/// and applied to the page bytes as it is. Four times the updates —
/// each key once, a tenth of them modified again in a later run — into
/// the same table may add a constant per extra block, per extra run and
/// per extra fold. Decoding an update took an allocation or two each,
/// and a `Modify` one more for the record it met.
#[test]
fn migration_allocates_per_run_block_not_per_update() {
    const RECORDS: u64 = 20_000; // 513 heap pages: one rewrite chunk
    const UPDATES: u64 = 2_000;
    // A cold block: its stored bytes, the codec's buffer, its offsets,
    // its `Arc`, and a growth step of the scan's read queue.
    const PER_BLOCK: u64 = 5;
    // A run scan and its place in the merge.
    const PER_RUN: u64 = 16;
    // Two versions decoded, their fold, its encoding.
    const PER_FOLD: u64 = 8;

    // `updates` updates to distinct keys in runs of 1,000, then every
    // tenth key modified again: allocations of the migration, run
    // blocks it read, runs and folds.
    let migrate = |updates: u64| {
        let (t, _) = loaded(MasmConfig::small_for_tests(), RECORDS);
        for i in 0..updates {
            let (key, op) = mixed_update(i, RECORDS);
            t.put(key, op).unwrap();
            if i % 1_000 == 999 {
                t.flush().unwrap();
            }
        }
        t.flush().unwrap();
        let mut again = 0;
        for i in (0..updates).step_by(10) {
            let (key, _) = mixed_update(i, RECORDS);
            let value = (i as u32 + 1).to_le_bytes().to_vec();
            t.put(key, UpdateOp::Modify(vec![FieldPatch { field: 0, value }]))
                .unwrap();
            again += 1;
        }
        t.flush().unwrap();
        let engine = t.engine();
        let runs = engine.stats().runs.count;
        let reads = engine.ssd().stats().read_ops;
        let before = allocations();
        let report = engine.migrate(&t.session).unwrap();
        let allocations = allocations() - before;
        assert_eq!(
            report.updates_applied, updates,
            "every key folds to one update"
        );
        assert_eq!(
            engine.heap().num_pages().div_ceil(1024),
            1,
            "one rewrite chunk"
        );
        let blocks = engine.ssd().stats().read_ops - reads;
        (allocations, blocks, runs, again)
    };
    let (small, small_blocks, small_runs, small_folds) = migrate(UPDATES);
    let (large, large_blocks, large_runs, large_folds) = migrate(4 * UPDATES);
    let budget = small
        + PER_BLOCK * (large_blocks - small_blocks)
        + PER_RUN * (large_runs - small_runs)
        + PER_FOLD * (large_folds - small_folds);
    assert!(
        large <= budget,
        "{small} allocations to migrate {UPDATES} updates ({small_blocks} blocks, {small_runs} \
         runs, {small_folds} folds), {large} for {} ({large_blocks} blocks, {large_runs} runs, \
         {large_folds} folds): budget {budget}",
        4 * UPDATES
    );
    eprintln!(
        "{small} allocations for {UPDATES} updates ({small_blocks} blocks, {small_runs} runs, \
         {small_folds} folds), {large} for {} ({large_blocks} blocks, {large_runs} runs, \
         {large_folds} folds), budget {budget}",
        4 * UPDATES
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

/// A heap on a fresh disk of its own, and a session on its clock.
fn fresh_heap() -> (TableHeap, SessionHandle) {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    (
        TableHeap::new(disk, HeapConfig::default()),
        SessionHandle::fresh(clock),
    )
}

/// A bulk load packs into one reused 1 MiB page buffer: loading 4,103
/// pages allocates what loading 513 does plus what each 1 MiB write and
/// each growth step of the page map and the index take. Building every
/// page before writing any took one allocation per page.
#[test]
fn a_bulk_load_allocates_per_write_not_per_page() {
    const SMALL: u64 = 20_000; // 513 pages, 3 writes
    const LARGE: u64 = 160_000; // 4,103 pages, 17 writes
                                // What one more 1 MiB write may allocate, growth steps of the page
                                // map and the index included.
    const PER_WRITE: u64 = 1;

    // Pre-built records: the allocations are the load's own.
    let allocations_of = |records: u64| {
        let (heap, session) = fresh_heap();
        let table: Vec<Record> = rows(records).collect();
        let before = allocations();
        heap.bulk_load(&session, table, 1.0).unwrap();
        let allocations = allocations() - before;
        assert_eq!(heap.record_count(), records);
        let writes = heap.device().stats().write_ops;
        (allocations, heap.num_pages(), writes)
    };
    let (small, small_pages, small_writes) = allocations_of(SMALL);
    let (large, large_pages, large_writes) = allocations_of(LARGE);
    assert_eq!((small_pages, large_pages), (513, 4_103));
    assert!(
        large <= small + PER_WRITE * (large_writes - small_writes),
        "{small} allocations to load {small_pages} pages in {small_writes} writes, {large} to \
         load {large_pages} in {large_writes}"
    );
    eprintln!(
        "{small} allocations for {small_pages} pages in {small_writes} writes, {large} for \
         {large_pages} in {large_writes}"
    );
}

/// What a bulk load holds at its peak is its 1 MiB page buffer, the
/// page map and the index — not a second copy of the table beside the
/// device's. The records are generated as the load takes them. The
/// device grows by the table as it is written, so the same writes are
/// made on a twin of the disk, and the load is charged only what it
/// holds beyond that growth. Both disks already hold a first table, so
/// the device grows by the second in one large step early in the load
/// (`Vec` doubles its capacity), and what the load holds after that
/// step cannot hide below the device's growth.
#[test]
fn a_bulk_load_holds_one_batch_not_the_table() {
    const RECORDS: u64 = 160_000; // 16 MiB of pages
    const SCAN_IO: i64 = 1 << 20;

    let (first, session) = fresh_heap();
    first.bulk_load(&session, rows(RECORDS), 1.0).unwrap();
    let clock = first.device().clock().clone();
    let disk = first.device().snapshot(clock.clone()).unwrap();
    let twin = first.device().snapshot(clock).unwrap();
    let table_bytes = disk.len();

    let heap = TableHeap::new(disk.clone(), HeapConfig::default());
    let start = reset_peak();
    heap.bulk_load(&session, rows(RECORDS), 1.0).unwrap();
    let loaded = peak() - start;
    assert_eq!(
        disk.len(),
        2 * table_bytes,
        "the second table lies behind the first"
    );
    assert_eq!(heap.record_count(), RECORDS);

    let batch = vec![0u8; SCAN_IO as usize];
    let start = reset_peak();
    for at in (table_bytes..disk.len()).step_by(batch.len()) {
        let len = (disk.len() - at).min(batch.len() as u64) as usize;
        twin.write_at(0, at, &batch[..len]).unwrap();
    }
    let grown = peak() - start;
    assert_eq!(twin.len(), disk.len());
    let held = loaded - grown;
    assert!(
        held <= 2 * SCAN_IO,
        "loading a {table_bytes}-byte table held {held} bytes at its peak"
    );
    eprintln!("{held} bytes held at the peak of a {table_bytes}-byte load");
}
