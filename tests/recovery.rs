//! Crash-recovery integration tests: the engine must come back from the
//! redo log and the non-volatile SSD with zero lost or duplicated
//! updates, across multiple crash points and crash-recover cycles.

use std::sync::Arc;

use masm_core::update::{UpdateOp, UpdateRecord};
use masm_core::wal::{Wal, WalRecord};
use masm_core::{MasmConfig, MasmEngine, MasmError, ShardedEngine};
use masm_pagestore::{HeapConfig, Key, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};
use masm_telemetry::{RecordKind, TraceConfig, Tracer};
use masm_workloads::synthetic::{SyntheticTable, UpdateMix, UpdateStreamGen};

fn schema() -> Schema {
    Schema::synthetic_100b()
}

struct Durable {
    clock: SimClock,
    disk: SimDevice,
    ssd: SimDevice,
    wal: SimDevice,
}

impl Durable {
    fn new() -> Durable {
        let clock = SimClock::new();
        Durable {
            disk: SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone()),
            ssd: SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()),
            wal: SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()),
            clock,
        }
    }

    fn session(&self) -> SessionHandle {
        SessionHandle::fresh(self.clock.clone())
    }

    fn fresh_engine(&self, records: u64) -> Arc<MasmEngine> {
        let heap = Arc::new(TableHeap::new(self.disk.clone(), HeapConfig::default()));
        let engine = MasmEngine::new(
            heap,
            self.ssd.clone(),
            self.wal.clone(),
            schema(),
            MasmConfig::small_for_tests(),
        )
        .unwrap();
        let s = self.session();
        engine
            .load_table(&s, SyntheticTable::new(records).records(), 1.0)
            .unwrap();
        engine
    }

    /// Simulate a crash: rebuild everything from the devices.
    fn recover(&self) -> Arc<MasmEngine> {
        let heap = Arc::new(TableHeap::new(self.disk.clone(), HeapConfig::default()));
        MasmEngine::recover(
            heap,
            self.ssd.clone(),
            self.wal.clone(),
            schema(),
            MasmConfig::small_for_tests(),
        )
        .unwrap()
        .0
    }
}

fn scan_all(engine: &Arc<MasmEngine>, s: &SessionHandle) -> Vec<(Key, Vec<u8>)> {
    engine
        .begin_scan(s.clone(), 0, u64::MAX)
        .unwrap()
        .map(|r| (r.key, r.payload))
        .collect()
}

#[test]
fn recovery_with_empty_wal_is_clean() {
    let d = Durable::new();
    let engine = d.recover();
    let s = d.session();
    assert_eq!(scan_all(&engine, &s).len(), 0);
}

#[test]
fn repeated_crash_recover_cycles_lose_nothing() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(1_000);
    let table = SyntheticTable::new(1_000);
    let mut gen = UpdateStreamGen::uniform(table, UpdateMix::default(), 77);

    let mut engine = engine;
    let mut expected = scan_all(&engine, &s);
    for cycle in 0..4 {
        for _ in 0..700 {
            let (k, op) = gen.next_update();
            engine.apply_update(&s, k, op).unwrap();
        }
        expected = scan_all(&engine, &s);
        drop(engine);
        engine = d.recover();
        let got = scan_all(&engine, &s);
        assert_eq!(expected, got, "cycle {cycle}");
    }
    // Migration after several recoveries still works and preserves data.
    engine.migrate(&s).unwrap();
    assert_eq!(expected, scan_all(&engine, &s));
}

#[test]
fn recovery_after_migration_sees_migrated_data() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(800);
    for i in 0..900u64 {
        engine
            .apply_update(&s, i * 2 + 1, UpdateOp::Insert(schema().empty_payload()))
            .unwrap();
    }
    engine.migrate(&s).unwrap();
    let expected = scan_all(&engine, &s);
    drop(engine);
    let engine = d.recover();
    assert_eq!(expected, scan_all(&engine, &s));
    assert_eq!(engine.run_count(), 0, "migrated runs stay deleted");
}

#[test]
fn recovery_resumes_timestamps_monotonically() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(100);
    let mut last_ts = 0;
    for i in 0..50u64 {
        last_ts = engine
            .apply_update(&s, i * 2 + 1, UpdateOp::Delete)
            .unwrap();
    }
    drop(engine);
    let engine = d.recover();
    let next = engine.apply_update(&s, 1, UpdateOp::Delete).unwrap();
    assert!(
        next > last_ts,
        "post-recovery timestamps ({next}) must exceed pre-crash ones ({last_ts})"
    );
}

#[test]
fn torn_wal_tail_is_truncated_and_salvaged() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(100);
    engine.apply_update(&s, 1, UpdateOp::Delete).unwrap();
    drop(engine);
    // Tear the log tail: append a half-written record whose length
    // prefix promises more bytes than exist — the shape a crash
    // mid-append leaves behind.
    let len = d.wal.len();
    d.wal.write_at(0, len, &[200, 0, 0, 0, 0]).unwrap();
    let tracer = Arc::new(Tracer::new(TraceConfig::default()));
    let recover_traced = || {
        let heap = Arc::new(TableHeap::new(d.disk.clone(), HeapConfig::default()));
        MasmEngine::recover_traced(
            heap,
            d.ssd.clone(),
            d.wal.clone(),
            schema(),
            MasmConfig::small_for_tests(),
            Some(Arc::clone(&tracer)),
        )
    };
    let (engine, report) = recover_traced().expect("torn tail must be truncated, not fatal");
    assert_eq!(report.wal_torn_bytes, 5, "{report:?}");
    assert_eq!(report.updates_recovered, 1);
    // The flight recorder saw the recovery itself: one `recovery` span
    // carrying the replayed-record count and one torn-tail instant
    // carrying the truncated bytes — and no migration redo.
    let records = tracer.take_records();
    let named = |name: &str| {
        records
            .iter()
            .filter(|r| r.name == name)
            .collect::<Vec<_>>()
    };
    let span = named("recovery");
    assert_eq!(span.len(), 1, "{records:?}");
    assert_eq!(span[0].kind, RecordKind::Span);
    assert_eq!(span[0].arg, report.wal_records_replayed);
    let torn = named("recovery.torn_tail");
    assert_eq!(torn.len(), 1, "{records:?}");
    assert_eq!((torn[0].kind, torn[0].arg), (RecordKind::Instant, 5));
    assert!(named("recovery.migration_redo").is_empty());
    // The acknowledged pre-crash delete survived the truncation.
    let keys: Vec<Key> = engine
        .begin_scan(s.clone(), 0, 5)
        .unwrap()
        .map(|r| r.key)
        .collect();
    assert!(!keys.contains(&1), "recovered delete visible");
    // Appending past the truncated tail and crashing again replays
    // cleanly: recovery erased the torn bytes. This crash lands
    // mid-migration (the heap device dies after `MigrationBegin` is
    // logged), so recovery re-drives it.
    engine.apply_update(&s, 3, UpdateOp::Delete).unwrap();
    d.disk.inject_write_fault();
    assert!(engine.migrate(&s).is_err(), "heap writes are failing");
    d.disk.clear_write_fault();
    drop(engine);
    let (engine, report) = recover_traced().unwrap();
    assert!(report.redid_migration, "{report:?}");
    assert_eq!(report.wal_torn_bytes, 0, "{report:?}");
    let records = tracer.take_records();
    let redo: Vec<_> = records
        .iter()
        .filter(|r| r.name == "recovery.migration_redo")
        .collect();
    assert_eq!(redo.len(), 1, "{records:?}");
    assert_eq!(redo[0].kind, RecordKind::Instant);
    assert!(records.iter().all(|r| r.name != "recovery.torn_tail"));
    let keys: Vec<Key> = engine.begin_scan(s, 0, 5).unwrap().map(|r| r.key).collect();
    assert!(!keys.contains(&1) && !keys.contains(&3));
}

/// A torn tail can hold whole frames: appends that were in flight
/// behind a reservation nobody wrote when the devices stopped. Recovery
/// cuts the log at the unwritten reservation; an append after it that
/// fills the hole exactly must not bring the frame behind it back.
#[test]
fn frames_beyond_a_torn_tail_never_come_back() {
    let d = Durable::new();
    let s = d.session();
    let value = |v: u32| {
        let mut p = schema().empty_payload();
        schema().set_u32(&mut p, 0, v);
        UpdateOp::Replace(p)
    };
    let engine = d.fresh_engine(100);
    engine.apply_update(&s, 1, value(1)).unwrap();
    drop(engine);
    // One unwritten reservation (zeros) and a complete frame after it:
    // an update of key 3 that was never acknowledged.
    let stale = {
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), d.clock.clone());
        let update = UpdateRecord::new(1_000, 3, value(99));
        Wal::new(dev.clone(), 0)
            .append(&s, &WalRecord::Update(update))
            .unwrap();
        dev.read_at(0, 0, dev.len()).unwrap().0
    };
    let hole = d.wal.len();
    d.wal
        .write_at(0, hole + stale.len() as u64, &stale)
        .unwrap();

    let engine = d.recover();
    let key = |engine: &Arc<MasmEngine>, k: Key| engine.get(&s, k).unwrap().map(|r| r.payload);
    assert_eq!(key(&engine, 3), None, "cut at the unwritten reservation");
    // An update of the same size fills the hole: the log now ends
    // exactly where the stale frame starts.
    engine.apply_update(&s, 5, value(7)).unwrap();
    assert_eq!(d.wal.len(), hole + 2 * stale.len() as u64);
    drop(engine);
    let engine = d.recover();
    assert!(key(&engine, 5).is_some(), "the acknowledged update");
    assert_eq!(key(&engine, 3), None, "a frame beyond the cut came back");
}

#[test]
fn midlog_wal_corruption_is_a_hard_error() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(100);
    engine.apply_update(&s, 1, UpdateOp::Delete).unwrap();
    engine.apply_update(&s, 3, UpdateOp::Delete).unwrap();
    drop(engine);
    // Flip a byte in the *middle* of the log. Valid records follow the
    // damage, so this cannot be a torn tail — recovery must refuse to
    // silently drop acknowledged history.
    let (mut bytes, _) = d.wal.read_at(d.wal.busy_until(), 12, 1).unwrap();
    bytes[0] ^= 0xFF;
    d.wal.write_at(d.wal.busy_until(), 12, &bytes).unwrap();
    let heap = Arc::new(TableHeap::new(d.disk.clone(), HeapConfig::default()));
    let err = MasmEngine::recover(
        heap,
        d.ssd.clone(),
        d.wal.clone(),
        schema(),
        MasmConfig::small_for_tests(),
    )
    .expect_err("mid-log corruption must be surfaced");
    assert!(err.to_string().contains("CRC"), "{err}");
}

#[test]
fn updates_arriving_after_recovery_coexist_with_recovered_state() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(500);
    for i in 0..800u64 {
        engine
            .apply_update(&s, i * 2 + 1, UpdateOp::Insert(schema().empty_payload()))
            .unwrap();
    }
    drop(engine);
    let engine = d.recover();
    // New updates after recovery.
    engine.apply_update(&s, 2, UpdateOp::Delete).unwrap();
    let keys: Vec<Key> = engine
        .begin_scan(s.clone(), 0, 20)
        .unwrap()
        .map(|r| r.key)
        .collect();
    assert!(keys.contains(&1), "recovered insert visible");
    assert!(!keys.contains(&2), "fresh delete visible");

    // Crash again: both generations survive.
    drop(engine);
    let engine = d.recover();
    let keys: Vec<Key> = engine
        .begin_scan(s, 0, 20)
        .unwrap()
        .map(|r| r.key)
        .collect();
    assert!(keys.contains(&1));
    assert!(!keys.contains(&2));
}

/// The frame of one logged `Delete`: a 9-byte header and a 17-byte body.
const DELETE_FRAME: u64 = 26;

/// One append to the log device fails — `break_log` arms the fault,
/// the device is revived right after. Nothing may be acknowledged
/// behind the failed frame: at the parent the three later deletes
/// returned `Ok`, sat behind a hole in the log, and recovery dropped
/// all three (while the refused delete of key 10 stayed applied).
/// Returns what recovery reported as torn.
fn nothing_is_acknowledged_behind_a_failed_append(break_log: impl Fn(&SimDevice)) -> u64 {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(100);
    engine.apply_update(&s, 2, UpdateOp::Delete).unwrap();
    let counted = engine.ingest_stats();
    let log_end = d.wal.len();

    break_log(&d.wal);
    let failed = engine.apply_update(&s, 10, UpdateOp::Delete).unwrap_err();
    assert!(matches!(failed, MasmError::Storage(_)), "{failed}");
    d.wal.clear_write_fault();

    // The log stays failed, naming where; `Err` means "not applied".
    for key in [20, 30, 40] {
        let refused = engine.apply_update(&s, key, UpdateOp::Delete);
        assert!(
            matches!(refused, Err(MasmError::LogFailed { offset }) if offset == log_end),
            "delete of {key} after the failed append: {refused:?}"
        );
    }
    let writes = vec![(50, UpdateOp::Delete), (52, UpdateOp::Delete)];
    let start_ts = engine.oracle().last_issued();
    let commit = engine.commit_writes(&s, start_ts, writes);
    assert!(
        matches!(commit, Err(MasmError::LogFailed { .. })),
        "{commit:?}"
    );
    assert_eq!(
        engine.ingest_stats(),
        counted,
        "a refused update is not counted"
    );
    assert_eq!(engine.buffered_updates(), 1);
    // Reads keep working, and see none of the refused updates.
    for key in [10, 20, 30, 40, 50, 52] {
        assert!(engine.get(&s, key).unwrap().is_some(), "key {key}");
    }
    assert!(engine.get(&s, 2).unwrap().is_none());
    assert_eq!(scan_all(&engine, &s).len(), 99);

    // Crash. Everything acknowledged is there, nothing refused is.
    drop(engine);
    let heap = Arc::new(TableHeap::new(d.disk.clone(), HeapConfig::default()));
    let cfg = MasmConfig::small_for_tests();
    let (engine, report) =
        MasmEngine::recover(heap, d.ssd.clone(), d.wal.clone(), schema(), cfg).unwrap();
    assert_eq!(report.updates_recovered, 1, "{report:?}");
    assert!(report.wal_torn_bytes < DELETE_FRAME, "{report:?}");
    assert!(engine.get(&s, 2).unwrap().is_none());
    assert_eq!(scan_all(&engine, &s).len(), 99);
    // The reopened table takes writes again, durably.
    engine.apply_update(&s, 20, UpdateOp::Delete).unwrap();
    drop(engine);
    let engine = d.recover();
    assert!(engine.get(&s, 20).unwrap().is_none());
    assert!(engine.get(&s, 10).unwrap().is_some());
    assert_eq!(scan_all(&engine, &s).len(), 98);
    report.wal_torn_bytes
}

#[test]
fn a_failed_log_append_fails_the_log_until_recovery() {
    let torn = nothing_is_acknowledged_behind_a_failed_append(SimDevice::inject_write_fault);
    assert_eq!(torn, 0, "the refused frame never reached the device");
}

#[test]
fn a_log_append_torn_at_any_byte_fails_the_log_until_recovery() {
    for keep in 0..DELETE_FRAME {
        let torn =
            nothing_is_acknowledged_behind_a_failed_append(|wal| wal.inject_torn_write(keep));
        assert_eq!(torn, keep, "only the torn frame's prefix is discarded");
    }
}

#[test]
fn a_failed_log_append_on_one_shard_fails_that_shard_only() {
    let clock = SimClock::new();
    let device = |p: DeviceProfile| SimDevice::in_memory(p, clock.clone());
    let disk = device(DeviceProfile::hdd_barracuda());
    let ssds = vec![
        device(DeviceProfile::ssd_x25e()),
        device(DeviceProfile::ssd_x25e()),
    ];
    let wals = vec![
        device(DeviceProfile::ssd_x25e()),
        device(DeviceProfile::ssd_x25e()),
    ];
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![100];
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let engine =
        ShardedEngine::new(heap, ssds.clone(), wals.clone(), schema(), cfg.clone()).unwrap();
    let s = SessionHandle::fresh(clock.clone());
    engine
        .load_table(&s, SyntheticTable::new(100).records(), 1.0)
        .unwrap();
    engine.put(&s, 150, UpdateOp::Delete).unwrap();
    let log_end = wals[1].len();

    // Keys from 100 up live on shard 1, whose log device now fails once.
    wals[1].inject_write_fault();
    assert!(engine.put(&s, 160, UpdateOp::Delete).is_err());
    wals[1].clear_write_fault();
    for key in [170, 180] {
        let refused = engine.put(&s, key, UpdateOp::Delete);
        assert!(
            matches!(refused, Err(MasmError::LogFailed { offset }) if offset == log_end),
            "put of {key} behind the failed append: {refused:?}"
        );
    }
    // Shard 0 has a log of its own, in good order.
    engine.put(&s, 20, UpdateOp::Delete).unwrap();
    let present = |e: &ShardedEngine, key| e.get(&s, key).unwrap().is_some();
    assert!([160, 170, 180].iter().all(|&k| present(&engine, k)));
    assert!(!present(&engine, 150) && !present(&engine, 20));

    drop(engine);
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let (engine, report) = ShardedEngine::recover(heap, ssds, wals, schema(), cfg, None).unwrap();
    assert_eq!(report.updates_recovered(), 2, "{report:?}");
    assert!(report.per_shard.iter().all(|r| r.wal_torn_bytes == 0));
    assert!([160, 170, 180].iter().all(|&k| present(&engine, k)));
    assert!(!present(&engine, 150) && !present(&engine, 20));
    engine.put(&s, 170, UpdateOp::Delete).unwrap();
    assert!(!present(&engine, 170));
}
