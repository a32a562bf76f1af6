//! End-to-end MaSM behaviour over update streams: scans of any range
//! and after migration are the model, the migrated heap stands alone,
//! flash writes stay sequential, every field can be modified, the
//! update cache refuses updates when full, and a loaded table refuses a
//! second load.

use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::{MasmConfig, MasmError};
use masm_model::{assert_rows, payload, puts, rows, schema, Op, Table};
use masm_pagestore::{Key, Record};

#[test]
fn masm_equals_inplace_after_migration_too() {
    let mut t = Table::new(MasmConfig::small_for_tests());
    let mut model = t.load(2_000);
    let everything = Op::Scan(0, Key::MAX, usize::MAX);
    let ops: Vec<Op> = puts("migration", 4_000)
        .take(1_500)
        .chain([everything, Op::Migrate])
        .collect();
    t.run(&mut model, &ops);
    // And the migrated heap alone (no merge) holds exactly that data.
    let heap = t.engine().heap().scan_range(t.session.clone(), 0, Key::MAX);
    let raw: Vec<Record> = heap.collect();
    assert_rows(
        &raw,
        &t.rows(0, Key::MAX),
        "post-migration heap is self-contained",
    );
}

#[test]
fn range_scans_match_full_scans() {
    let mut t = Table::new(MasmConfig::small_for_tests());
    let mut model = t.load(5_000);
    let ranges = [(0, 999), (1000, 4999), (5000, 9999), (9000, Key::MAX)];
    let scans = ranges.map(|(begin, end)| Op::Scan(begin, end, usize::MAX));
    let ops: Vec<Op> = puts("ranges", 10_000).take(3_000).chain(scans).collect();
    t.run(&mut model, &ops);
}

#[test]
fn masm_never_issues_random_ssd_writes() {
    // Design goal 2, end to end: stream updates, scans, merges, and a
    // migration; the SSD must see at most a handful of non-continuation
    // writes (run starts after space rewinds), never scattered ones.
    let mut t = Table::new(MasmConfig::small_for_tests());
    let mut model = t.load(2_000);
    t.engine().ssd().reset_stats();
    let mut updates = puts("sequential", 4_000);
    for _ in 0..3 {
        let tail = [Op::Scan(0, 500, usize::MAX), Op::Migrate];
        let round: Vec<Op> = updates.by_ref().take(4_000).chain(tail).collect();
        t.run(&mut model, &round);
    }
    let stats = t.engine().ssd().stats();
    assert!(stats.write_ops > 50, "the test must actually write runs");
    // Every write either continues the previous one or starts a fresh
    // run region; with the rewinding allocator that is a small constant
    // per run, far below the write count.
    assert!(
        stats.random_writes < stats.write_ops / 4,
        "random {} of {} writes",
        stats.random_writes,
        stats.write_ops
    );
}

#[test]
fn modify_of_every_field_applies() {
    let mut t = Table::new(MasmConfig::small_for_tests());
    let mut model = t.load(100);
    // Field 0 is the u32 measure; field 1 the filler bytes.
    let modify = |field, value| Op::Put(50, UpdateOp::Modify(vec![FieldPatch { field, value }]));
    let ops = [
        modify(0, 123u32.to_le_bytes().to_vec()),
        modify(1, vec![7u8; 88]),
    ];
    t.run(&mut model, &ops);
    let rec = t.get(50).unwrap().unwrap();
    assert_eq!(schema().get_u32(&rec.payload, 0), 123);
    assert_eq!(schema().get(&rec.payload, 1), vec![7u8; 88]);
}

#[test]
fn update_cache_capacity_is_enforced() {
    let mut cfg = MasmConfig::small_for_tests();
    // Tiny: 256 KiB (M = 8, α = 1 still valid).
    cfg.ssd_capacity = 64 * 4096;
    // The buffer is S·P = 64 KiB — a quarter of the cache — so the cache
    // can fill up while still below a 0.9 threshold; use 0.7 so "full"
    // implies "needs migration".
    cfg.migration_threshold = 0.7;
    let t = Table::new(cfg);
    t.load(1_000);
    let insert = |i: u64| UpdateOp::Insert(payload(i as u32));
    let full = (0..200_000).find(|&i| match t.put(i * 2 + 1, insert(i)) {
        Ok(_) => false,
        Err(MasmError::CacheFull { .. }) => true,
        Err(e) => panic!("unexpected error: {e}"),
    });
    assert!(full.is_some(), "engine must report a full cache");
    assert!(t.engine().needs_migration());
    // Migration drains the cache and ingestion resumes.
    t.migrate().unwrap();
    assert_eq!(t.engine().cached_bytes(), 0);
    t.put(1, UpdateOp::Delete).unwrap();
}

/// A second bulk load is refused before it writes a page or logs a
/// thing: the disk, the redo log and the heap stay as the first load
/// left them.
#[test]
fn a_second_load_is_refused_before_it_writes() {
    let t = Table::new(MasmConfig::small_for_tests());
    let model = t.load(2_000);
    let heap = t.engine().heap();
    let (disk, wal) = (t.dev.disk.len(), t.dev.wal.len());
    let metadata = heap.metadata_snapshot();

    let err = t
        .engine()
        .load_table(&t.session, rows(500), 1.0)
        .unwrap_err();
    let pages = metadata.0.len();
    assert!(
        matches!(err, MasmError::TableNotEmpty { pages: p } if p == pages),
        "{err}"
    );
    assert_eq!((t.dev.disk.len(), t.dev.wal.len()), (disk, wal));
    assert_eq!(heap.metadata_snapshot(), metadata);
    t.check(&model);
}
