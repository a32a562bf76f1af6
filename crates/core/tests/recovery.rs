//! Crash-recovery tests: the engine must come back from the redo log
//! and the non-volatile SSD with zero lost or duplicated updates,
//! across multiple crash points and crash-recover cycles, refuse to
//! acknowledge anything behind a failed log append, and refuse a log
//! it cannot replay with a typed error, never a panic.

use std::sync::Arc;

use masm_blockrun::BlockRunError;
use masm_codec::bytes::seal;
use masm_core::update::{FieldPatch, UpdateOp, UpdateRecord};
use masm_core::wal::{Wal, WalRecord};
use masm_core::{MasmConfig, MasmEngine, MasmError};
use masm_model::{flash, payload, puts, schema, Devices, Model, Op, Spec, Table};
use masm_pagestore::{ChunkCommit, HeapConfig, Key, TableHeap};
use masm_storage::SimDevice;
use masm_telemetry::{RecordKind, TraceConfig, Tracer};

/// A standalone table of `rows` rows, and its model.
fn table(rows: u64) -> (Table, Model) {
    let t = Table::new(MasmConfig::small_for_tests());
    let model = t.load(rows);
    (t, model)
}

/// The keys of `[begin, end]` the table holds.
fn keys(t: &Table, begin: Key, end: Key) -> Vec<Key> {
    t.rows(begin, end).iter().map(|r| r.key).collect()
}

#[test]
fn recovery_with_empty_wal_is_clean() {
    let spec = Spec::new(MasmConfig::small_for_tests());
    let (t, _) = spec.recover(Devices::default(), None).unwrap();
    assert!(t.rows(0, Key::MAX).is_empty());
}

/// Four cycles of updates and a crash, then a migration: every
/// recovery is the model (`Table::step` checks it at each crash).
#[test]
fn repeated_crash_recover_cycles_lose_nothing() {
    let (mut t, mut model) = table(1_000);
    let mut updates = puts("crash cycles", 2_000);
    for _ in 0..4 {
        let cycle: Vec<Op> = updates.by_ref().take(700).chain([Op::Crash]).collect();
        t.run(&mut model, &cycle);
    }
    // Migration after several recoveries still works and preserves data.
    t.run(&mut model, &[Op::Migrate]);
}

#[test]
fn recovery_after_migration_sees_migrated_data() {
    let (mut t, mut model) = table(800);
    let inserts = (0..900).map(|i| Op::Put(i * 2 + 1, UpdateOp::Insert(payload(i as u32))));
    let ops: Vec<Op> = inserts.chain([Op::Migrate, Op::Crash]).collect();
    t.run(&mut model, &ops);
    assert_eq!(t.engine().run_count(), 0, "migrated runs stay deleted");
}

#[test]
fn recovery_resumes_timestamps_monotonically() {
    let (mut t, _) = table(100);
    let mut last_ts = 0;
    for i in 0..50u64 {
        last_ts = t.put(i * 2 + 1, UpdateOp::Delete).unwrap();
    }
    t.crash(None).unwrap();
    let next = t.put(1, UpdateOp::Delete).unwrap();
    assert!(
        next > last_ts,
        "post-recovery timestamps ({next}) must exceed pre-crash ones ({last_ts})"
    );
}

#[test]
fn torn_wal_tail_is_truncated_and_salvaged() {
    let (mut t, _) = table(100);
    t.put(1, UpdateOp::Delete).unwrap();
    // Tear the log tail: append a half-written record whose length
    // prefix promises more bytes than exist — the shape a crash
    // mid-append leaves behind.
    let wal = &t.dev.wal;
    wal.write_at(0, wal.len(), &[200, 0, 0, 0, 0]).unwrap();
    let tracer = Arc::new(Tracer::new(TraceConfig::default()));
    let report = t
        .crash(Some(&tracer))
        .expect("torn tail must be truncated, not fatal");
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
    assert!(!keys(&t, 0, 5).contains(&1), "recovered delete visible");
    // Appending past the truncated tail and crashing again replays
    // cleanly: recovery erased the torn bytes. This crash lands
    // mid-migration (the heap device dies after `MigrationBegin` is
    // logged), so recovery re-drives it.
    t.put(3, UpdateOp::Delete).unwrap();
    t.dev.disk.inject_write_fault();
    assert!(t.migrate().is_err(), "heap writes are failing");
    t.dev.disk.clear_write_fault();
    let report = t.crash(Some(&tracer)).unwrap();
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
    let keys = keys(&t, 0, 5);
    assert!(!keys.contains(&1) && !keys.contains(&3));
}

/// A torn tail can hold whole frames beyond a zero hole. Recovery cuts
/// the log at the hole; an append after it that fills the hole exactly
/// must not bring the frame behind it back.
#[test]
fn frames_beyond_a_torn_tail_never_come_back() {
    let (mut t, _) = table(100);
    let value = |v: u32| UpdateOp::Replace(payload(v));
    t.put(1, value(1)).unwrap();
    // One unwritten reservation (zeros) and a complete frame after it:
    // an update of key 3 that was never acknowledged.
    let stale = {
        let (log, session) = flash();
        let update = UpdateRecord::new(1_000, 3, value(99));
        Wal::new(log.clone(), 0)
            .append(&session, &WalRecord::Update(update))
            .unwrap();
        session.read(&log, 0, log.len()).unwrap()
    };
    let hole = t.dev.wal.len();
    t.dev
        .wal
        .write_at(0, hole + stale.len() as u64, &stale)
        .unwrap();

    t.crash(None).unwrap();
    let present = |t: &Table, k: Key| t.get(k).unwrap().is_some();
    assert!(!present(&t, 3), "cut at the unwritten reservation");
    // An update of the same size fills the hole: the log now ends
    // exactly where the stale frame starts.
    t.put(5, value(7)).unwrap();
    assert_eq!(t.dev.wal.len(), hole + 2 * stale.len() as u64);
    t.crash(None).unwrap();
    assert!(present(&t, 5), "the acknowledged update");
    assert!(!present(&t, 3), "a frame beyond the cut came back");
}

#[test]
fn midlog_wal_corruption_is_a_hard_error() {
    let (mut t, _) = table(100);
    t.put(1, UpdateOp::Delete).unwrap();
    t.put(3, UpdateOp::Delete).unwrap();
    // Flip a byte in the *middle* of the log. Valid records follow the
    // damage, so this cannot be a torn tail — recovery must refuse to
    // silently drop acknowledged history.
    let (wal, session) = (&t.dev.wal, &t.session);
    let byte = session.read(wal, 12, 1).unwrap()[0];
    wal.write_at(session.now(), 12, &[!byte]).unwrap();
    let err = t
        .crash(None)
        .expect_err("mid-log corruption must be surfaced");
    assert!(err.to_string().contains("CRC"), "{err}");
}

#[test]
fn updates_arriving_after_recovery_coexist_with_recovered_state() {
    let (mut t, _) = table(500);
    for i in 0..800u64 {
        let op = UpdateOp::Insert(payload(i as u32));
        t.put(i * 2 + 1, op).unwrap();
    }
    t.crash(None).unwrap();
    // New updates after recovery.
    t.put(2, UpdateOp::Delete).unwrap();
    let got = keys(&t, 0, 20);
    assert!(got.contains(&1), "recovered insert visible");
    assert!(!got.contains(&2), "fresh delete visible");

    // Crash again: both generations survive.
    t.crash(None).unwrap();
    let got = keys(&t, 0, 20);
    assert!(got.contains(&1));
    assert!(!got.contains(&2));
}

/// The frame of one logged `Delete`: a 9-byte header and a 17-byte body.
const DELETE_FRAME: u64 = 26;

/// One append to the log device fails — `break_log` arms the fault,
/// the device is revived right after. Nothing may be acknowledged
/// behind the failed frame: once, the three later deletes returned
/// `Ok`, sat behind a hole in the log, and recovery dropped all three
/// (while the refused delete of key 10 stayed applied). Returns what
/// recovery reported as torn.
fn nothing_is_acknowledged_behind_a_failed_append(break_log: impl Fn(&SimDevice)) -> u64 {
    let (mut t, _) = table(100);
    t.put(2, UpdateOp::Delete).unwrap();
    let engine = t.engine();
    let counted = engine.stats();
    let log_end = t.dev.wal.len();

    break_log(&t.dev.wal);
    let failed = t.put(10, UpdateOp::Delete).unwrap_err();
    assert!(matches!(failed, MasmError::Storage(_)), "{failed}");
    t.dev.wal.clear_write_fault();

    // The log stays failed, naming where; `Err` means "not applied".
    for key in [20, 30, 40] {
        let refused = t.put(key, UpdateOp::Delete);
        assert!(
            matches!(refused, Err(MasmError::LogFailed { offset }) if offset == log_end),
            "delete of {key} after the failed append: {refused:?}"
        );
    }
    let writes = vec![(50, UpdateOp::Delete), (52, UpdateOp::Delete)];
    let start_ts = engine.read_ts();
    let commit = engine.commit_writes(&t.session, start_ts, writes);
    assert!(
        matches!(commit, Err(MasmError::LogFailed { .. })),
        "{commit:?}"
    );
    let now = engine.stats();
    assert_eq!(
        (now.ingested_updates, now.ingested_bytes),
        (counted.ingested_updates, counted.ingested_bytes),
        "a refused update is not counted"
    );
    assert_eq!(now.buffer.updates, 1);
    // Reads keep working, and see none of the refused updates.
    for key in [10, 20, 30, 40, 50, 52] {
        assert!(t.get(key).unwrap().is_some(), "key {key}");
    }
    assert!(t.get(2).unwrap().is_none());
    assert_eq!(t.rows(0, Key::MAX).len(), 99);

    // Crash. Everything acknowledged is there, nothing refused is.
    let report = t.crash(None).unwrap();
    assert_eq!(report.updates_recovered, 1, "{report:?}");
    assert!(report.wal_torn_bytes < DELETE_FRAME, "{report:?}");
    assert!(t.get(2).unwrap().is_none());
    assert_eq!(t.rows(0, Key::MAX).len(), 99);
    // The reopened table takes writes again, durably.
    t.put(20, UpdateOp::Delete).unwrap();
    t.crash(None).unwrap();
    assert!(t.get(20).unwrap().is_none());
    assert!(t.get(10).unwrap().is_some());
    assert_eq!(t.rows(0, Key::MAX).len(), 98);
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

/// A splice the log names must fit the heap recovery is rebuilding: a
/// CRC-valid `MapSplice` past the page map, with a key count that is
/// not its page count, or taking more records than the heap holds is
/// corruption. Once, the first of these panicked in the sparse index.
#[test]
fn a_splice_outside_the_heap_is_corrupt_not_a_panic() {
    let splice = |at, n_old, n_new, min_keys, record_delta| ChunkCommit {
        at,
        n_old,
        base_phys: 0,
        n_new,
        min_keys,
        record_delta,
    };
    for commit in [
        splice(1000, 5, 1, vec![0], 0),
        splice(usize::MAX, 2, 1, vec![0], 0),
        splice(0, 1, 2, vec![0], 0),
        splice(0, 1, 1, vec![0], -1000),
    ] {
        let (t, _) = table(100);
        let wal = Wal::new(t.dev.wal.clone(), t.dev.wal.len());
        let seq = t.engine().read_ts();
        let splice = WalRecord::MapSplice {
            seq,
            commit: commit.clone(),
        };
        wal.append(&t.session, &splice).unwrap();
        let Err(err) = t.spec.clone().recover(t.dev.crash(), None) else {
            panic!("{commit:?} recovered");
        };
        assert!(matches!(err, MasmError::Corrupt(_)), "{commit:?}: {err}");
    }
}

/// A CRC-valid `Update` frame the schema cannot apply — a `Modify` of
/// a field the table does not have, logged after an insert of its key
/// — is corruption: recovery refuses the log rather than buffer an
/// update that fails every read of its key and panics the flush that
/// folds it.
#[test]
fn a_logged_update_the_schema_cannot_apply_is_corrupt() {
    let (t, _) = table(100);
    t.put(1, UpdateOp::Insert(payload(1))).unwrap();
    let wal = Wal::new(t.dev.wal.clone(), t.dev.wal.len());
    let patch = FieldPatch {
        field: 99,
        value: vec![7; 4],
    };
    let update = UpdateRecord::new(t.engine().read_ts(), 1, UpdateOp::Modify(vec![patch]));
    wal.append(&t.session, &WalRecord::Update(update)).unwrap();
    let Err(err) = t.spec.clone().recover(t.dev.crash(), None) else {
        panic!("a log with an update field 99 recovered");
    };
    assert!(matches!(err, MasmError::Corrupt("WAL Update")), "{err}");
}

/// Tag 7 framed a sharded deployment's manifest, the first frame of
/// each of its logs. The tag is retired, so such a log is refused as
/// corrupt, before any heap event is replayed.
#[test]
fn a_log_with_a_retired_manifest_frame_is_refused() {
    let (t, _) = table(100);
    // `[body_len][crc][tag][body]`, the CRC over tag and body.
    let mut sealed = b"\x07MSMF".to_vec();
    seal(&mut sealed, 0);
    let (tagged, crc) = sealed.split_at(sealed.len() - 4);
    let frame = [&(tagged.len() as u32 - 1).to_le_bytes(), crc, tagged].concat();
    let wal = &t.dev.wal;
    wal.write_at(t.session.now(), wal.len(), &frame).unwrap();

    let image = t.dev.crash();
    let heap = Arc::new(TableHeap::new(image.disk.clone(), HeapConfig::default()));
    let cfg = t.spec.cfg.clone();
    let recovered = MasmEngine::recover(Arc::clone(&heap), image.ssd, image.wal, schema(), cfg);
    let Err(err) = recovered else {
        panic!("a log with a tag-7 frame recovered");
    };
    assert!(matches!(err, MasmError::Corrupt(_)), "{err}");
    assert_eq!(heap.num_pages(), 0, "refused before any heap event");
}

/// A CRC-valid `RunCreated` whose run would end past `u64::MAX` on the
/// SSD: recovery refuses it, typed, instead of overflowing an offset.
#[test]
fn a_run_whose_offsets_overflow_is_corrupt_not_a_panic() {
    let (t, _) = table(100);
    let wal = Wal::new(t.dev.wal.clone(), t.dev.wal.len());
    let run = WalRecord::RunCreated {
        id: 1_000,
        base: u64::MAX - 10,
        bytes: 200,
        count: 1,
        passes: 1,
        max_ts: 0,
    };
    wal.append(&t.session, &run).unwrap();
    let Err(err) = t.spec.clone().recover(t.dev.crash(), None) else {
        panic!("a run past the end of the address space recovered");
    };
    assert!(
        matches!(&err, MasmError::BlockRun(BlockRunError::Corrupt(_))),
        "{err}"
    );
}
