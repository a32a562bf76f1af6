//! Allocation budget of the merged scan, on exact counts: a hot-cache
//! scan allocates the payload of each record it returns, what decoding
//! an update's operation takes, and a constant per block and per heap
//! batch — no page copies, no entry clones, no payload clones. A
//! binary of its own, because the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use masm_core::config::MasmConfig;
use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::MasmEngine;
use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn hot_scan_allocates_per_record_returned_and_per_update_decoded() {
    const RECORDS: u64 = 40_000; // four 1 MiB heap batches
    const UPDATES: u64 = 6_000;

    let schema = Schema::synthetic_100b();
    let clock = SimClock::new();
    let device = |profile| SimDevice::in_memory(profile, clock.clone());
    let heap = Arc::new(TableHeap::new(
        device(DeviceProfile::hdd_barracuda()),
        HeapConfig::default(),
    ));
    let mut cfg = MasmConfig::small_for_tests();
    cfg.block_cache_bytes = 64 << 20; // every run block stays in tier 1
    let engine = MasmEngine::new(
        Arc::clone(&heap),
        device(DeviceProfile::ssd_x25e()),
        device(DeviceProfile::ssd_x25e()),
        schema.clone(),
        cfg,
    )
    .unwrap();
    let session = SessionHandle::fresh(clock.clone());
    engine
        .load_table(
            &session,
            (0..RECORDS).map(|i| Record::new(i * 2, schema.empty_payload())),
            1.0,
        )
        .unwrap();

    // The benchmark's mix: a third each of inserts (odd keys), deletes
    // and single-field modifies, spread over the table; every 1,000 a
    // run of its own.
    for i in 0..UPDATES {
        let slot = i * 7919 % RECORDS;
        let (key, op) = match i % 3 {
            0 => (slot * 2 + 1, UpdateOp::Insert(schema.empty_payload())),
            1 => (slot * 2, UpdateOp::Delete),
            _ => {
                let value = (i as u32).to_le_bytes().to_vec();
                (
                    slot * 2,
                    UpdateOp::Modify(vec![FieldPatch { field: 0, value }]),
                )
            }
        };
        engine.apply_update(&session, key, op).unwrap();
        if i % 1_000 == 999 {
            engine.flush_buffer(&session).unwrap();
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.buffer.updates, 0, "every update is in a run");
    let runs = stats.runs.count;

    let scan_all = || {
        engine
            .begin_scan(session.clone(), 0, Key::MAX)
            .unwrap()
            .count() as u64
    };
    let warm = scan_all();
    let blocks = engine.cache_stats().insertions;
    assert!(blocks > 0 && runs >= 6);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let returned = scan_all();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
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
