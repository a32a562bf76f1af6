//! The engine's unit tests.

use std::sync::Arc;

use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

use masm_blockrun::{Entry, RunBuilder};

use super::{MasmEngine, MigrationReport};
use crate::config::MasmConfig;
use crate::error::MasmError;
use crate::run::{write_built, SortedRun};
use crate::update::{FieldPatch, UpdateOp, UpdateRecord};
use crate::wal::WalRecord;

fn schema() -> Schema {
    Schema::synthetic_100b()
}

fn payload(measure: u32) -> Vec<u8> {
    let s = schema();
    let mut p = s.empty_payload();
    s.set_u32(&mut p, 0, measure);
    p
}

struct Fixture {
    engine: Arc<MasmEngine>,
    session: SessionHandle,
    #[allow(dead_code)]
    clock: SimClock,
}

fn fixture(n_records: u64) -> Fixture {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal_dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let engine =
        MasmEngine::new(heap, ssd, wal_dev, schema(), MasmConfig::small_for_tests()).unwrap();
    let session = SessionHandle::fresh(clock.clone());
    if n_records > 0 {
        engine
            .load_table(
                &session,
                (0..n_records).map(|i| Record::new(i * 2, payload(i as u32))),
                1.0,
            )
            .unwrap();
    }
    Fixture {
        engine,
        session,
        clock,
    }
}

fn scan_keys(f: &Fixture, begin: Key, end: Key) -> Vec<Key> {
    f.engine
        .begin_scan(f.session.clone(), begin, end)
        .unwrap()
        .map(|r| r.key)
        .collect()
}

#[test]
fn scan_without_updates_matches_heap() {
    let f = fixture(1000);
    let keys = scan_keys(&f, 0, u64::MAX);
    assert_eq!(keys.len(), 1000);
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn freshly_applied_updates_visible_to_scans() {
    let f = fixture(100);
    // Insert an odd key, delete an even key, modify another.
    f.engine
        .apply_update(&f.session, 41, UpdateOp::Insert(payload(999)))
        .unwrap();
    f.engine
        .apply_update(&f.session, 10, UpdateOp::Delete)
        .unwrap();
    f.engine
        .apply_update(
            &f.session,
            20,
            UpdateOp::Modify(vec![crate::update::FieldPatch {
                field: 0,
                value: 777u32.to_le_bytes().to_vec(),
            }]),
        )
        .unwrap();
    let recs: Vec<Record> = f
        .engine
        .begin_scan(f.session.clone(), 0, 60)
        .unwrap()
        .collect();
    let keys: Vec<Key> = recs.iter().map(|r| r.key).collect();
    assert!(keys.contains(&41), "insert visible");
    assert!(!keys.contains(&10), "delete visible");
    let r20 = recs.iter().find(|r| r.key == 20).unwrap();
    assert_eq!(schema().get_u32(&r20.payload, 0), 777, "modify visible");
}

#[test]
fn updates_after_query_start_invisible() {
    let f = fixture(100);
    let scan = f.engine.begin_scan(f.session.clone(), 0, u64::MAX).unwrap();
    // This update commits after the scan's timestamp.
    f.engine
        .apply_update(&f.session, 31, UpdateOp::Insert(payload(1)))
        .unwrap();
    let keys: Vec<Key> = scan.map(|r| r.key).collect();
    assert!(!keys.contains(&31));
    // A later scan sees it.
    assert!(scan_keys(&f, 0, u64::MAX).contains(&31));
}

#[test]
fn buffer_flushes_to_runs_and_stays_visible() {
    let f = fixture(1000);
    // Push enough updates to force several flushes.
    for i in 0..3000u64 {
        f.engine
            .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(i as u32)))
            .unwrap();
    }
    assert!(f.engine.run_count() > 0, "runs materialized");
    let keys = scan_keys(&f, 0, 1000);
    // All odd and even keys up to 1000.
    assert_eq!(keys.len(), 1001);
    assert!(keys.windows(2).all(|w| w[0] + 1 == w[1]));
}

#[test]
fn no_random_ssd_writes_design_goal_2() {
    let f = fixture(100);
    f.engine.ssd().reset_stats();
    for i in 0..5000u64 {
        f.engine
            .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(1)))
            .unwrap();
    }
    // Flushes, and possibly 2-pass merges, happened.
    let stats = f.engine.ssd().stats();
    assert!(stats.write_ops > 0);
    // Run allocations are contiguous; at most one "random" write per
    // run start (no predecessor continuation).
    assert!(
        stats.random_writes as usize <= f.engine.run_count() + 64,
        "{stats:?}"
    );
}

#[test]
fn migration_applies_everything_and_clears_runs() {
    let f = fixture(500);
    for i in 0..1500u64 {
        f.engine
            .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(7)))
            .unwrap();
    }
    f.engine
        .apply_update(&f.session, 100, UpdateOp::Delete)
        .unwrap();
    let before = scan_keys(&f, 0, u64::MAX);
    let report = f.engine.migrate(&f.session).unwrap();
    assert!(report.runs_migrated > 0);
    assert_eq!(f.engine.run_count(), 0, "runs deleted after migration");
    let after = scan_keys(&f, 0, u64::MAX);
    // Buffered (unflushed) updates still overlay correctly.
    assert_eq!(before, after, "migration must not change query results");
    assert!(!after.contains(&100));
}

#[test]
fn scan_during_migration_window_is_correct() {
    // A scan opened *after* migration's timestamp sees a mix of
    // migrated pages and still-live runs; page timestamps prevent
    // double-application.
    let f = fixture(300);
    for i in 0..900u64 {
        f.engine
            .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(3)))
            .unwrap();
    }
    let expect = scan_keys(&f, 0, u64::MAX);
    f.engine.migrate(&f.session).unwrap();
    let got = scan_keys(&f, 0, u64::MAX);
    assert_eq!(expect, got);
    // Apply the same logical updates again: idempotence of replace.
    for i in 0..900u64 {
        f.engine
            .apply_update(&f.session, i * 2 + 1, UpdateOp::Replace(payload(3)))
            .unwrap();
    }
    let again = scan_keys(&f, 0, u64::MAX);
    assert_eq!(expect, again);
}

#[test]
fn small_range_scans_after_many_updates() {
    let f = fixture(5000);
    for i in 0..4000u64 {
        f.engine
            .apply_update(
                &f.session,
                ((i * 37) % 10000) | 1,
                UpdateOp::Insert(payload(i as u32)),
            )
            .unwrap();
    }
    let keys = scan_keys(&f, 5000, 5100);
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    assert!(keys.iter().all(|&k| (5000..=5100).contains(&k)));
    // All even keys in range must be present.
    for k in (5000..=5100).step_by(2) {
        assert!(keys.contains(&k), "missing base key {k}");
    }
}

#[test]
fn crash_recovery_restores_buffer_and_runs() {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal_dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let session = SessionHandle::fresh(clock.clone());
    let engine = MasmEngine::new(
        heap,
        ssd.clone(),
        wal_dev.clone(),
        schema(),
        MasmConfig::small_for_tests(),
    )
    .unwrap();
    engine
        .load_table(
            &session,
            (0..500u64).map(|i| Record::new(i * 2, payload(i as u32))),
            1.0,
        )
        .unwrap();
    let mut last = 0;
    for i in 0..1200u64 {
        last = engine
            .apply_update(&session, i * 2 + 1, UpdateOp::Insert(payload(5)))
            .unwrap();
    }
    let expect = engine
        .begin_scan(session.clone(), 0, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .collect::<Vec<_>>();
    let buffered = engine.stats().buffer.updates;
    let runs = engine.run_count();
    assert!(buffered > 0 && runs > 0, "need both tiers for the test");

    // "Crash": drop the engine; devices survive. Rebuild a fresh heap
    // handle over the same disk device (metadata comes from the WAL).
    drop(engine);
    let heap2 = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let (engine2, report) =
        MasmEngine::recover(heap2, ssd, wal_dev, schema(), MasmConfig::small_for_tests()).unwrap();
    assert_eq!(report.updates_recovered, buffered);
    assert_eq!(report.runs_recovered, runs);
    assert!(!report.redid_migration);
    // Draws resume past the largest logged timestamp, the scan's
    // (in no frame) drawn again.
    assert_eq!(engine2.read_ts(), last + 1);
    let got: Vec<Key> = engine2
        .begin_scan(session, 0, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .collect();
    assert_eq!(expect, got, "post-recovery scans see all updates");
}

#[test]
fn crash_during_migration_is_redone() {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal_dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let session = SessionHandle::fresh(clock.clone());
    let engine = MasmEngine::new(
        heap,
        ssd.clone(),
        wal_dev.clone(),
        schema(),
        MasmConfig::small_for_tests(),
    )
    .unwrap();
    engine
        .load_table(
            &session,
            (0..400u64).map(|i| Record::new(i * 2, payload(i as u32))),
            1.0,
        )
        .unwrap();
    for i in 0..900u64 {
        engine
            .apply_update(&session, i * 2 + 1, UpdateOp::Insert(payload(9)))
            .unwrap();
    }
    let expect: Vec<Key> = engine
        .begin_scan(session.clone(), 0, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .collect();
    // Simulate a crash mid-migration: log MigrationBegin but stop.
    // (The state lock is dropped before the WAL append — holding it
    // across device I/O trips the lock-discipline debug assert.)
    let ids: Vec<u64> = {
        let st = engine.state.lock();
        st.runs.runs().iter().map(|r| r.id).collect()
    };
    engine
        .wal
        .append(
            &session,
            &WalRecord::MigrationBegin {
                ts: engine.read_ts(),
                run_ids: ids,
            },
        )
        .unwrap();
    drop(engine);
    let heap2 = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let (engine2, report) =
        MasmEngine::recover(heap2, ssd, wal_dev, schema(), MasmConfig::small_for_tests()).unwrap();
    assert!(report.redid_migration);
    assert_eq!(
        engine2.run_count(),
        0,
        "migration completed during recovery"
    );
    let got: Vec<Key> = engine2
        .begin_scan(session, 0, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .collect();
    assert_eq!(expect, got);
}

#[test]
fn run_count_stays_within_query_page_budget_at_scan_setup() {
    let f = fixture(200);
    let budget = f.engine.config().query_pages() as usize;
    for i in 0..40_000u64 {
        f.engine
            .apply_update(&f.session, (i % 399) | 1, UpdateOp::Replace(payload(1)))
            .unwrap();
    }
    // Trigger scan setup (merges runs down to the budget).
    let _ = scan_keys(&f, 0, 10);
    assert!(
        f.engine.run_count() <= budget,
        "runs {} > budget {budget}",
        f.engine.run_count()
    );
}

#[test]
fn migration_of_empty_engine_is_noop() {
    let f = fixture(50);
    let report = f.engine.migrate(&f.session).unwrap();
    assert_eq!(report, MigrationReport::default());
}

#[test]
fn partial_migration_preserves_results_and_composes() {
    let f = fixture(600);
    for i in 0..1_200u64 {
        f.engine
            .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(4)))
            .unwrap();
    }
    f.engine
        .apply_update(&f.session, 100, UpdateOp::Delete)
        .unwrap();
    let expect = scan_keys(&f, 0, u64::MAX);

    // Migrate only the first quarter of the key space.
    let r1 = f.engine.migrate_range(&f.session, 0, 300).unwrap();
    assert!(r1.updates_applied > 0);
    assert!(f.engine.run_count() > 0, "partial migration keeps runs");
    assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "after first quarter");

    // Another partial slice, overlapping the first (idempotence via
    // page timestamps).
    f.engine.migrate_range(&f.session, 200, 700).unwrap();
    assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "after overlap");

    // Full migration retires the runs and still agrees.
    f.engine.migrate(&f.session).unwrap();
    assert_eq!(f.engine.run_count(), 0);
    assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "after full");
    assert!(!expect.contains(&100));
}

#[test]
fn partial_migration_is_cheaper_than_full() {
    // The table must span several rewrite chunks for the comparison
    // to be about data volume rather than fixed costs.
    let n = 120_000u64;
    let run = |partial: bool| {
        let f = fixture(n);
        for i in 0..3_000u64 {
            f.engine
                .apply_update(
                    &f.session,
                    ((i * 79) % (2 * n)) | 1,
                    UpdateOp::Insert(payload(1)),
                )
                .unwrap();
        }
        let start = f.session.now();
        if partial {
            f.engine.migrate_range(&f.session, 0, n / 5).unwrap();
        } else {
            f.engine.migrate(&f.session).unwrap();
        }
        f.session.now() - start
    };
    let partial_ns = run(true);
    let full_ns = run(false);
    assert!(
        partial_ns * 3 < full_ns,
        "10% range should cost far less: partial={partial_ns} full={full_ns}"
    );
}

#[test]
fn compact_runs_collapses_duplicates() {
    let f = fixture(200);
    // Hammer a handful of keys so folding has teeth.
    for i in 0..6_000u64 {
        f.engine
            .apply_update(
                &f.session,
                (i % 10) * 2,
                UpdateOp::Replace(payload(i as u32)),
            )
            .unwrap();
    }
    let runs_before = f.engine.run_count();
    assert!(runs_before >= 2, "need several runs");
    let bytes_before = f.engine.cached_bytes();
    let expect = scan_keys(&f, 0, u64::MAX);
    let merges_before = f.engine.merge_stats();

    let report = f.engine.compact_runs(&f.session).unwrap();
    assert_eq!(report.inputs, runs_before as u64);
    assert!(
        report.blocks_merged > 0,
        "hammered keys overlap across runs: {report:?}"
    );
    assert_eq!(f.engine.run_count(), 1, "single run remains");
    assert_eq!(f.engine.merge_stats(), merges_before.merge(&report));
    assert!(
        f.engine.cached_bytes() < bytes_before / 4,
        "duplicates folded: {} -> {}",
        bytes_before,
        f.engine.cached_bytes()
    );
    assert_eq!(expect, scan_keys(&f, 0, u64::MAX));
    // The surviving values are the latest ones.
    let rec = f
        .engine
        .begin_scan(f.session.clone(), 0, 0)
        .unwrap()
        .next()
        .unwrap();
    assert_eq!(schema().get_u32(&rec.payload, 0), 5990);
}

#[test]
fn compact_runs_on_few_runs_is_noop() {
    let f = fixture(50);
    assert_eq!(
        f.engine.compact_runs(&f.session).unwrap(),
        masm_storage::MergeReport::default()
    );
}

#[test]
fn disjoint_compaction_decodes_nothing_and_writes_sequentially() {
    let f = fixture(100);
    // Four key-disjoint bands, each cut into its own run(s): the
    // merge plan must move every block verbatim.
    for band in 0..4u64 {
        for i in 0..400u64 {
            f.engine
                .apply_update(
                    &f.session,
                    band * 100_000 + i * 2 + 1,
                    UpdateOp::Insert(payload(band as u32)),
                )
                .unwrap();
        }
        f.engine.flush_buffer(&f.session).unwrap();
    }
    let runs_before = f.engine.run_count();
    assert!(runs_before >= 4, "need several runs, got {runs_before}");
    let expect = scan_keys(&f, 0, u64::MAX);

    let before = f.engine.ssd().stats();
    let report = f.engine.compact_runs(&f.session).unwrap();
    let delta = f.engine.ssd().stats().delta(&before);

    assert_eq!(report.inputs, runs_before as u64);
    assert_eq!(report.bytes_decoded, 0, "zero-decode: {report:?}");
    assert_eq!(report.blocks_merged, 0);
    assert!(report.blocks_moved > 0);
    assert_eq!(delta.random_writes, 0, "{delta:?}");
    assert_eq!(f.engine.run_count(), 1);
    assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "results unchanged");

    // Metadata accounting follows the run set: one run's footprint
    // remains, and a full migration releases it.
    let st = f.engine.cache_stats();
    assert!(st.meta_bytes > 0, "{st:?}");
    f.engine.migrate(&f.session).unwrap();
    assert_eq!(f.engine.cache_stats().meta_bytes, 0);
    assert_eq!(expect, scan_keys(&f, 0, u64::MAX), "after migration");
}

#[test]
fn overlapping_compaction_decodes_only_the_overlap() {
    let f = fixture(100);
    // Two runs sharing one key band plus disjoint tails.
    for i in 0..400u64 {
        f.engine
            .apply_update(&f.session, i * 2 + 1, UpdateOp::Insert(payload(1)))
            .unwrap();
    }
    f.engine.flush_buffer(&f.session).unwrap();
    for i in 300..700u64 {
        f.engine
            .apply_update(&f.session, i * 2 + 1, UpdateOp::Replace(payload(2)))
            .unwrap();
    }
    f.engine.flush_buffer(&f.session).unwrap();
    let expect = scan_keys(&f, 0, u64::MAX);

    let report = f.engine.compact_runs(&f.session).unwrap();
    assert!(report.blocks_merged > 0, "{report:?}");
    assert!(report.blocks_moved > 0, "disjoint tails move: {report:?}");
    // Only ~a quarter of the entries sit in the shared band, so the
    // decoded portion must stay well below the moved portion.
    assert!(
        report.bytes_decoded < report.bytes_moved,
        "only the overlap decodes: {report:?}"
    );
    assert_eq!(expect, scan_keys(&f, 0, u64::MAX));
    // The overlap band carries the later run's values.
    let rec = f
        .engine
        .begin_scan(f.session.clone(), 601, 601)
        .unwrap()
        .next()
        .unwrap();
    assert_eq!(schema().get_u32(&rec.payload, 0), 2);
}

#[test]
fn get_consults_buffer_runs_bloom_and_heap() {
    let f = fixture(100); // even keys 0..200 hold payload(key/2)

    // Heap fallback: no cached updates at all.
    let rec = f.engine.get(&f.session, 40).unwrap().expect("heap hit");
    assert_eq!(schema().get_u32(&rec.payload, 0), 20);

    // Hit in a materialized run.
    f.engine
        .apply_update(&f.session, 43, UpdateOp::Insert(payload(900)))
        .unwrap();
    f.engine
        .apply_update(&f.session, 20, UpdateOp::Delete)
        .unwrap();
    f.engine.flush_buffer(&f.session).unwrap();
    assert!(f.engine.run_count() > 0 && f.engine.stats().buffer.updates == 0);
    let rec = f.engine.get(&f.session, 43).unwrap().expect("run hit");
    assert_eq!(schema().get_u32(&rec.payload, 0), 900);
    assert!(f.engine.get(&f.session, 20).unwrap().is_none(), "deleted");

    // Hit in the in-memory buffer (overrides the run's version).
    f.engine
        .apply_update(&f.session, 43, UpdateOp::Replace(payload(901)))
        .unwrap();
    assert!(f.engine.stats().buffer.updates > 0);
    let rec = f.engine.get(&f.session, 43).unwrap().expect("buffer hit");
    assert_eq!(schema().get_u32(&rec.payload, 0), 901);

    // Bloom negative: a key in no run costs zero SSD reads.
    let ssd_reads = f.engine.ssd().stats().read_ops;
    let miss = f.engine.get(&f.session, 45).unwrap();
    assert!(miss.is_none());
    assert_eq!(
        f.engine.ssd().stats().read_ops,
        ssd_reads,
        "bloom rejected the run without I/O"
    );

    // Agreement with the merged scan operator across all cases.
    for key in [20u64, 40, 43, 45, 44] {
        let via_scan: Vec<Record> = f
            .engine
            .begin_scan(f.session.clone(), key, key)
            .unwrap()
            .collect();
        let via_get = f.engine.get(&f.session, key).unwrap();
        assert_eq!(via_scan.first(), via_get.as_ref(), "key {key}");
    }
}

/// Write a run of `entries` (sorted by key, then timestamp) behind the
/// engine's back and register it, as if flushed; its id.
fn add_run(f: &Fixture, entries: impl IntoIterator<Item = Entry>) -> u64 {
    let mut builder = RunBuilder::new(f.engine.cfg.blockrun_config());
    for entry in entries {
        builder.append_entry(entry);
    }
    let (meta, bytes) = builder.finish();
    let mut st = f.engine.state.lock();
    let mut run = SortedRun::from_meta(st.runs.next_id(), 1, meta);
    run.rebase(st.runs.alloc_space(run.bytes));
    drop(st);
    write_built(&f.session, f.engine.ssd(), &run, &bytes).unwrap();
    f.engine.state.lock().runs.add(Arc::new(run.clone()));
    run.id
}

/// A run entry that passes its block's CRC and decodes, but whose
/// `modify` names a field the schema lacks or carries the wrong width,
/// is `Corrupt("run entry")` for a `get` and ends a merged scan with
/// that error — never a panic. Key 40 (a heap record) gets a modify of
/// field 99; key 41 an insert and a 3-byte modify of the 4-byte field
/// 0, which the scan folds into the insert and `get` applies to it.
#[test]
fn a_run_entry_that_does_not_fit_its_record_is_corrupt_not_a_panic() {
    let f = fixture(200);
    let patch = |field, width| {
        UpdateOp::Modify(vec![FieldPatch {
            field,
            value: vec![7; width],
        }])
    };
    let updates = [
        (40, patch(99, 4)),
        (41, UpdateOp::Insert(payload(5))),
        (41, patch(0, 3)),
    ];
    add_run(
        &f,
        updates.map(|(key, op)| {
            let update = UpdateRecord::new(f.engine.read_ts(), key, op);
            Entry::new(key, update.ts, update.encode_value())
        }),
    );
    for key in [40, 41] {
        let err = f.engine.get(&f.session, key).unwrap_err();
        assert!(
            matches!(err, MasmError::Corrupt("run entry")),
            "get({key}): {err}"
        );
        let mut scan = f.engine.begin_scan(f.session.clone(), key, key).unwrap();
        assert_eq!(scan.by_ref().count(), 0, "scan of {key}");
        let err = scan.error().expect("the scan says why it ended");
        assert!(
            matches!(err, MasmError::Corrupt("run entry")),
            "scan of {key}: {err}"
        );
    }
    assert!(f.engine.get(&f.session, 42).unwrap().is_some());
    assert_eq!(scan_keys(&f, 42, 50), vec![42, 44, 46, 48, 50]);
}

/// A query that draws its timestamp just after a migration drew its
/// own pins the runs the migration retires, and the migration does not
/// wait for it. The runs' extents stay allocated until the query ends,
/// so it reads them intact after a later flush — one that would have
/// reused their space had the retirement rewound the allocator.
/// (`begin_scan_at` with an `as_of` above the migration's timestamp
/// stands in for a query that drew it on another thread.)
#[test]
fn a_scan_pinned_above_a_migration_reads_its_runs_after_a_later_flush() {
    let f = fixture(500);
    for i in 0..1500u64 {
        let op = UpdateOp::Insert(payload(7));
        f.engine.apply_update(&f.session, i * 2 + 1, op).unwrap();
    }
    f.engine.flush_buffer(&f.session).unwrap();
    let mut want: Vec<Record> = (0..500u32)
        .map(|i| Record::new(u64::from(i) * 2, payload(i)))
        .chain((0..1500u64).map(|i| Record::new(i * 2 + 1, payload(7))))
        .collect();
    want.sort_by_key(|r| r.key);

    // The migration draws the next timestamp, the query the one after.
    let as_of = f.engine.wal.order().last_drawn() + 2;
    let mut scan = f
        .engine
        .begin_scan_at(f.session.clone(), 0, Key::MAX, Some(as_of), Vec::new())
        .unwrap();
    let report = f.engine.migrate(&f.session).unwrap();
    assert!(report.runs_migrated > 0 && report.ts < as_of, "{report:?}");
    assert_eq!(f.engine.run_count(), 0);
    for i in 0..1500u64 {
        let op = UpdateOp::Replace(payload(8));
        f.engine.apply_update(&f.session, i * 2 + 1, op).unwrap();
    }
    f.engine.flush_buffer(&f.session).unwrap();

    let got: Vec<Record> = scan.by_ref().collect();
    assert!(scan.error().is_none(), "{:?}", scan.error());
    assert!(got == want, "the pinned scan returned other rows");
}

/// Run `f` on a thread of its own and fail if it is still running a
/// minute later: a stranded pin shows as a `migrate` that waits on
/// `quiesce` forever, which has to fail the test, not hang the job.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = done.send(f());
    });
    match result.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(value) => value,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("still waiting after 60 s"),
        Err(_) => std::panic::resume_unwind(worker.join().expect_err("it sent nothing")),
    }
}

/// Whichever way a `get` ends, it is no longer a registered query
/// afterwards: a later migration (which waits for every earlier query)
/// returns, and no snapshot is left trailing the epoch.
#[test]
fn no_exit_from_get_strands_its_pin() {
    let f = fixture(200);
    for i in 0..50u64 {
        f.engine
            .apply_update(&f.session, i * 2, UpdateOp::Replace(payload(7)))
            .unwrap();
    }
    f.engine.flush_buffer(&f.session).unwrap();

    // An error from the heap read.
    f.engine.heap().device().inject_read_fault();
    let err = f.engine.get(&f.session, 40).unwrap_err();
    assert!(matches!(err, MasmError::Storage(_)), "{err}");
    f.engine.heap().device().clear_read_fault();

    // An error from a run: an entry for key 41 that passes its block's
    // CRC and carries an operation tag nobody wrote.
    let bad_run = add_run(&f, [Entry::new(41, f.engine.read_ts(), vec![0x7F])]);
    let err = f.engine.get(&f.session, 41).unwrap_err();
    assert!(matches!(err, MasmError::Corrupt("run entry")), "{err}");
    assert!(f.engine.get(&f.session, 40).unwrap().is_some());

    // A migration meets the same entry in its run scan, which reports
    // it: the migration fails with it and leaves the run in place.
    let migrate = || {
        let (engine, session) = (Arc::clone(&f.engine), f.session.clone());
        within_a_minute(move || engine.migrate(&session))
    };
    let err = migrate().unwrap_err();
    assert!(matches!(err, MasmError::Corrupt("run entry")), "{err}");
    let runs = f.engine.state.lock().runs.runs().to_vec();
    assert!(
        runs.iter().any(|r| r.id == bad_run),
        "the run is left in place"
    );
    let lag = || f.engine.stats().runs.epoch_lag;
    assert_eq!(lag(), 0, "no query left pinned");

    f.engine.state.lock().runs.remove_ids(&[bad_run]);
    let report = migrate().unwrap();
    assert_eq!(report.runs_migrated, 1);
    assert_eq!(lag(), 0, "no query left pinned");
    let rec = f.engine.get(&f.session, 40).unwrap().expect("migrated");
    assert_eq!(schema().get_u32(&rec.payload, 0), 7);
}

/// A partial migration rewrites whole pages, so it has to apply every
/// cached update of the pages it stamps — not only those inside the
/// range it was asked for.
#[test]
fn partial_migration_applies_every_update_of_the_pages_it_stamps() {
    let f = fixture(200); // even keys 0..=398; 20, 21 and 30 share page 0
    for (key, op) in [
        (20, UpdateOp::Replace(payload(777))),
        (30, UpdateOp::Replace(payload(888))),
        (21, UpdateOp::Insert(payload(999))),
    ] {
        f.engine.apply_update(&f.session, key, op).unwrap();
    }
    f.engine.flush_buffer(&f.session).unwrap();
    let read = || {
        let value = |r: Record| schema().get_u32(&r.payload, 0);
        let via_get = [20, 21, 30].map(|key| f.engine.get(&f.session, key).unwrap().map(value));
        let via_scan: Vec<(Key, u32)> = f
            .engine
            .begin_scan(f.session.clone(), 20, 21)
            .unwrap()
            .map(|r| (r.key, value(r)))
            .collect();
        (via_get, via_scan)
    };
    let want = (
        [Some(777), Some(999), Some(888)],
        vec![(20, 777), (21, 999)],
    );
    assert_eq!(read(), want, "before");
    let report = f.engine.migrate_range(&f.session, 28, 32).unwrap();
    assert_eq!(read(), want, "after");
    assert_eq!(report.updates_applied, 3);
}

/// A busy claim sends the caller away instead of queueing it, and
/// dropping the claim is all it takes to release the job.
#[test]
fn a_busy_claim_returns_and_its_drop_releases() {
    let f = fixture(100);
    for round in 0..2 {
        for i in 0..50u64 {
            f.engine
                .apply_update(&f.session, i * 2, UpdateOp::Replace(payload(round)))
                .unwrap();
        }
        f.engine.flush_buffer(&f.session).unwrap();
    }
    let claim = f.engine.claim_migration().expect("nothing is migrating");
    assert!(f.engine.claim_migration().is_none());
    let busy = f.engine.migrate(&f.session).unwrap();
    assert_eq!(busy, MigrationReport::default(), "one migration at a time");
    let busy = f.engine.compact_runs(&f.session).unwrap();
    assert_eq!(busy.inputs, 0, "no merge under a migration");
    assert_eq!(f.engine.run_count(), 2);

    drop(claim);
    assert_eq!(f.engine.compact_runs(&f.session).unwrap().inputs, 2);
    assert_eq!(f.engine.migrate(&f.session).unwrap().runs_migrated, 1);
    assert_eq!(f.engine.run_count(), 0);
}

/// A migration that runs while another one holds the claim returns at
/// once: nothing logged, written, merged or retired. The claim alone
/// keeps migrations one at a time.
#[test]
fn a_migration_under_another_ones_claim_changes_nothing() {
    let f = fixture(100);
    for i in 0..50u64 {
        f.engine
            .apply_update(&f.session, i * 2, UpdateOp::Replace(payload(9)))
            .unwrap();
    }
    f.engine.flush_buffer(&f.session).unwrap();
    let claim = f.engine.claim_migration().expect("nothing is migrating");
    let state = || {
        let heap = f.engine.heap().device().stats().bytes_written;
        let ssd = f.engine.ssd().stats().bytes_written;
        (f.engine.wal.offset(), heap, ssd, f.engine.run_count())
    };
    let before = state();
    let busy = f.engine.migrate(&f.session).unwrap();
    assert_eq!(busy, MigrationReport::default());
    assert_eq!(state(), before);

    drop(claim);
    assert_eq!(f.engine.migrate(&f.session).unwrap().runs_migrated, 1);
}

/// `bad` is refused through every door with a typed error, leaves no
/// trace (nothing buffered, logged or counted; no timestamp drawn, no
/// commit-index entry), and a valid update to the same key afterwards
/// is logged, replays, and answers scans and gets from a run.
fn assert_refused_and_harmless(f: &Fixture, key: Key, bad: UpdateOp, then: UpdateOp) {
    use crate::error::MasmError;
    use crate::wal::Wal;

    let e = &f.engine;
    // Log end, buffered and counted updates, the last timestamp drawn,
    // the commit index.
    let trace = || {
        let (stats, drawn) = (e.stats(), e.wal.order().last_drawn());
        (
            e.wal.offset(),
            stats.buffer.updates,
            (stats.ingested_updates, stats.ingested_bytes),
            drawn,
            e.commit_index.lock().len(),
        )
    };
    let before = trace();
    let refused = |r: Result<(), MasmError>, door: &str| {
        assert!(
            matches!(r, Err(MasmError::InvalidUpdate { key: k, .. }) if k == key),
            "{door}: {r:?}"
        );
        assert_eq!(trace(), before, "{door} left a trace");
    };
    refused(
        e.apply_update(&f.session, key, bad.clone()).map(drop),
        "apply_update",
    );
    // One bad write refuses the whole commit, the good one included.
    let writes = vec![(key + 2, UpdateOp::Delete), (key, bad)];
    let start_ts = e.wal.order().last_drawn();
    refused(
        e.commit_writes(&f.session, start_ts, writes).map(drop),
        "commit_writes",
    );

    e.apply_update(&f.session, key, then).unwrap();
    let replay = Wal::replay(&f.session, e.wal.device()).unwrap();
    assert_eq!(replay.torn_bytes, 0);
    assert!(matches!(replay.records.last(), Some(WalRecord::Update(u)) if u.key == key));
    e.flush_buffer(&f.session).unwrap();
    assert_eq!(scan_keys(f, key, key), vec![key]);
    assert!(e.get(&f.session, key).unwrap().is_some());
}

#[test]
fn oversized_payload_is_refused_not_acknowledged() {
    // `u16` length fields: at the parent this was acked, then replay
    // failed with `Corrupt("WAL update length")` — every acked update
    // lost — and a scan over the key panicked decoding the run entry.
    let f = fixture(100);
    let valid = UpdateOp::Insert(payload(7));
    assert_refused_and_harmless(&f, 41, UpdateOp::Insert(vec![7; 70_000]), valid.clone());
    let just_over = vec![7; u16::MAX as usize + 1];
    assert_refused_and_harmless(&f, 43, UpdateOp::Replace(just_over), valid);
}

#[test]
fn payload_of_another_width_than_the_schema_is_refused() {
    use crate::update::FieldPatch;
    // An acked `Insert(vec![])` poisons the key the same way: a later,
    // valid `Modify` indexes past the short payload in `Schema::set`.
    let f = fixture(100);
    let valid = UpdateOp::Insert(payload(7));
    assert_refused_and_harmless(&f, 41, UpdateOp::Insert(vec![]), valid.clone());
    let mut long = payload(7);
    long.push(0);
    assert_refused_and_harmless(&f, 43, UpdateOp::Replace(long), valid);
    let value = 5u32.to_le_bytes().to_vec();
    let modify = UpdateOp::Modify(vec![FieldPatch { field: 0, value }]);
    f.engine.apply_update(&f.session, 41, modify).unwrap();
    let got = f.engine.get(&f.session, 41).unwrap().unwrap();
    assert_eq!(f.engine.schema().get_u32(&got.payload, 0), 5);
}

#[test]
fn modify_of_an_unknown_field_or_wrong_width_is_refused() {
    use crate::update::FieldPatch;
    // At the parent both were acked and then tripped `Schema::set`'s
    // assertion in every later scan, get and migration of the key.
    let f = fixture(100);
    let patch = |field, value: Vec<u8>| UpdateOp::Modify(vec![FieldPatch { field, value }]);
    let valid = patch(0, 5u32.to_le_bytes().to_vec());
    assert_refused_and_harmless(&f, 40, patch(2, vec![0; 4]), valid.clone());
    assert_refused_and_harmless(&f, 42, patch(0, vec![0; 3]), valid.clone());
    // A bad patch anywhere in the list refuses the update.
    let mixed = UpdateOp::Modify(vec![
        FieldPatch {
            field: 0,
            value: vec![0; 4],
        },
        FieldPatch {
            field: 1,
            value: vec![0; 87],
        },
    ]);
    assert_refused_and_harmless(&f, 44, mixed, valid);
}

#[test]
fn more_patches_than_the_count_byte_holds_are_refused() {
    use crate::update::FieldPatch;
    let f = fixture(100);
    let patches = |n: usize| {
        let value = 1u32.to_le_bytes().to_vec();
        UpdateOp::Modify(vec![FieldPatch { field: 0, value }; n])
    };
    assert_refused_and_harmless(&f, 40, patches(256), patches(255));
}

/// A table whose records cannot fit a heap page is refused when it is
/// opened: an insert into it could be acknowledged and logged, and then
/// no migration — the recovery redo included — could ever place it.
/// The widest record that does fit goes all the way round.
#[test]
fn a_record_wider_than_a_heap_page_is_refused_at_open() {
    use masm_pagestore::{Field, FieldType};

    let open = |width: u16| {
        let clock = SimClock::new();
        let device = |profile| SimDevice::in_memory(profile, clock.clone());
        let heap = Arc::new(TableHeap::new(
            device(DeviceProfile::hdd_barracuda()),
            HeapConfig::default(),
        ));
        let schema = Schema::new(vec![Field::new("blob", FieldType::Bytes(width))]);
        let ssd = device(DeviceProfile::ssd_x25e());
        let wal = device(DeviceProfile::ssd_x25e());
        let engine = MasmEngine::new(heap, ssd, wal, schema, MasmConfig::small_for_tests());
        engine.map(|engine| (engine, SessionHandle::fresh(clock)))
    };

    match open(5000) {
        Err(MasmError::Config(why)) => assert!(why.contains("at most 4078"), "{why}"),
        other => panic!("a 5,000-byte record on 4 KiB pages: {:?}", other.map(drop)),
    }
    assert!(matches!(open(4069), Err(MasmError::Config(_))));

    // 4,068 bytes of payload, the 10-byte record header and the 2-byte
    // slot are exactly what a 4 KiB page has after its 16-byte header.
    let (engine, session) = open(4068).unwrap();
    for key in [30u64, 10, 20] {
        let op = UpdateOp::Insert(vec![key as u8; 4068]);
        engine.apply_update(&session, key, op).unwrap();
    }
    let report = engine.migrate(&session).unwrap();
    assert_eq!((report.updates_applied, report.pages_written), (3, 3));
    engine
        .apply_update(&session, 20, UpdateOp::Replace(vec![0xFF; 4068]))
        .unwrap();
    engine.apply_update(&session, 10, UpdateOp::Delete).unwrap();
    engine.migrate(&session).unwrap();
    assert_eq!(engine.heap().num_pages(), 2);
    let back: Vec<Record> = engine.begin_scan(session, 0, Key::MAX).unwrap().collect();
    assert_eq!(
        back,
        [
            Record::new(20, vec![0xFF; 4068]),
            Record::new(30, vec![30; 4068])
        ]
    );
}

/// Two sealed batches whose flushes finish out of order: the younger
/// batch's run is logged while the older batch is still only in the
/// redo log. A crash at that moment must not treat the older batch's
/// updates as flushed — they are in no run yet.
#[test]
fn a_younger_batch_flushed_first_does_not_hide_an_older_one() {
    let f = fixture(10);
    let put = |keys: std::ops::Range<u64>, v: u32| {
        for k in keys {
            let op = UpdateOp::Replace(payload(v));
            f.engine.apply_update(&f.session, k * 2 + 1, op).unwrap();
        }
    };
    put(0..20, 1);
    // The older batch: sealed, its flush not done.
    let _older = f.engine.state.lock().seal(&f.engine);
    put(20..40, 2);
    let younger = f.engine.state.lock().seal(&f.engine);
    f.engine.flush_batch(&f.session, younger).unwrap();

    // Crash with the older batch unflushed.
    let clock = SimClock::new();
    let disk = f.engine.heap().device().snapshot(clock.clone()).unwrap();
    let ssd = f.engine.ssd().snapshot(clock.clone()).unwrap();
    let wal = f.engine.wal.device().snapshot(clock.clone()).unwrap();
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let cfg = MasmConfig::small_for_tests();
    let (recovered, report) = MasmEngine::recover(heap, ssd, wal, schema(), cfg).unwrap();
    assert_eq!(report.runs_recovered, 1);
    let session = SessionHandle::fresh(clock);
    let got: Vec<Key> = recovered
        .begin_scan(session, 1, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .filter(|k| k % 2 == 1)
        .collect();
    assert_eq!(got, (0..40).map(|k| k * 2 + 1).collect::<Vec<_>>());
}

/// A batch another caller has sealed and is still flushing is read by
/// every query that meets it: a `get` finds its updates, and a scan
/// opened beside the flush reads them from its snapshot after the run
/// that replaces the batch is installed.
#[test]
fn a_scan_meets_a_sealed_batch() {
    let f = fixture(100);
    let value = |r: &Record| schema().get_u32(&r.payload, 0);
    for i in 0..20u32 {
        let op = UpdateOp::Replace(payload(500 + i));
        f.engine
            .apply_update(&f.session, u64::from(i) * 2, op)
            .unwrap();
    }
    let batch = f.engine.state.lock().seal(&f.engine);
    let op = UpdateOp::Insert(payload(1));
    f.engine.apply_update(&f.session, 1, op).unwrap();

    let scan = f.engine.begin_scan(f.session.clone(), 0, 40).unwrap();
    let got = f.engine.get(&f.session, 10).unwrap();
    assert_eq!(got.as_ref().map(value), Some(505), "get of a sealed update");
    f.engine.flush_batch(&f.session, batch).unwrap();
    assert_eq!(f.engine.run_count(), 1, "the batch is a run");

    let mut want: Vec<(Key, u32)> = (0..20u32).map(|i| (u64::from(i) * 2, 500 + i)).collect();
    want.insert(1, (1, 1));
    want.push((40, 20));
    let got: Vec<(Key, u32)> = scan.map(|r| (r.key, value(&r))).collect();
    assert_eq!(got, want, "the scan opened beside the flush");
    assert_eq!(
        scan_keys(&f, 0, 40),
        want.iter().map(|&(k, _)| k).collect::<Vec<_>>()
    );
}
