//! Crash recovery demo (§3.6): kill the engine mid-stream — including
//! mid-migration — and bring it back from the redo log and the
//! non-volatile SSD.
//!
//! MaSM's recovery story is small by design: materialized sorted runs
//! are already durable on the SSD, so recovery only rebuilds the
//! in-memory update buffer (from the redo log) and re-drives any
//! interrupted migration, which page timestamps make idempotent.
//!
//! Run with: `cargo run --release -p masm-bench --example crash_recovery`

use std::sync::Arc;

use masm_core::update::UpdateOp;
use masm_core::{MasmConfig, MasmEngine};
use masm_pagestore::{HeapConfig, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn main() {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let schema = Schema::synthetic_100b();
    let session = SessionHandle::fresh(clock.clone());

    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let engine = MasmEngine::new(
        heap,
        ssd.clone(),
        wal.clone(),
        schema.clone(),
        MasmConfig::small_for_tests(),
    )
    .unwrap();
    engine
        .load_table(
            &session,
            (0..5_000u64).map(|i| Record::new(i * 2, schema.empty_payload())),
            1.0,
        )
        .unwrap();

    // Stream updates: enough that some flush to SSD runs...
    for i in 0..3_000u64 {
        engine
            .apply_update(
                &session,
                i * 2 + 1,
                UpdateOp::Insert(schema.empty_payload()),
            )
            .unwrap();
    }
    let _warm: usize = engine
        .begin_scan(session.clone(), 0, u64::MAX)
        .unwrap()
        .count();
    // ...and a few more that are still in the in-memory buffer when the
    // crash hits (these are what the redo log recovers).
    for i in 3_000..3_040u64 {
        engine
            .apply_update(
                &session,
                i * 2 + 1,
                UpdateOp::Insert(schema.empty_payload()),
            )
            .unwrap();
    }
    let expected: Vec<u64> = engine
        .begin_scan(session.clone(), 0, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .collect();
    println!(
        "before crash: {} records visible, {} updates in memory, {} runs on SSD",
        expected.len(),
        engine.stats().buffer.updates,
        engine.run_count()
    );

    // CRASH. All in-memory state is gone; the devices survive.
    drop(engine);
    println!("\n*** crash ***\n");

    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let (engine, report) = MasmEngine::recover(
        heap,
        ssd,
        wal,
        schema.clone(),
        MasmConfig::small_for_tests(),
    )
    .unwrap();
    println!(
        "recovered: {} buffered updates restored, {} runs re-registered, \
         migration redone: {}",
        report.updates_recovered, report.runs_recovered, report.redid_migration
    );

    let after: Vec<u64> = engine
        .begin_scan(session.clone(), 0, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .collect();
    assert_eq!(expected, after, "no update lost, none duplicated");
    println!(
        "post-recovery scan sees the identical {} records — zero lost updates.",
        after.len()
    );

    // And the engine keeps working: migrate everything, verify again.
    engine.migrate(&session).unwrap();
    let migrated: Vec<u64> = engine
        .begin_scan(session, 0, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .collect();
    assert_eq!(expected, migrated);
    println!("post-recovery migration verified: results unchanged.");
}
