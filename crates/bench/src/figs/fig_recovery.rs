//! Crash recovery under load: pull the plug on an engine mid-ingest
//! and mid-migration, and measure what comes back.
//!
//! The paper's §3.6 recovery argument is that MaSM only needs to
//! rebuild the small in-memory update buffer from the redo log —
//! materialized runs, the heap, and interrupted migrations all recover
//! from non-volatile state plus idempotent redo. Three lanes ingest into
//! one engine over a small loaded table, each into a key range of its
//! own, taking turns on one thread with one `put` each per turn;
//! whenever the cached updates reach the migration threshold the driver
//! migrates. The stream is long enough for migrations to come due.
//! Device snapshots ("the power cable") are taken at fixed points:
//!
//! * after ⅛, ½ and 9⁄10 of the stream;
//! * inside the first migration: the WAL is cut after the migration's
//!   last `MapSplice`, before `RunsDeleted` and `MigrationEnd`, so
//!   recovery finds the migration begun and not finished and must
//!   re-drive it;
//! * the torn tail: the WAL 3 bytes short at the end of the stream,
//!   i.e. the plug pulled while the last `put` was writing.
//!
//! Snapshot ordering mirrors a real single-point-in-time crash: the WAL
//! is snapshotted before the SSD and the heap disk last, so a WAL
//! record can only name payload bytes the other snapshots contain (the
//! engine makes run bytes and heap pages durable before logging them).
//!
//! For every crash point the figure recovers via
//! [`masm_core::MasmEngine::recover`] and asserts the recovery
//! contract: no lost update — every `put` that returned before the cut
//! is in a post-recovery scan — and zero random SSD writes through
//! migration redo and fresh post-recovery ingest on the recovered
//! devices (design goal 2 survives the crash). It also asserts that
//! every point replayed records, that the migration point re-drove a
//! migration, and that the torn point truncated bytes.

use std::collections::HashMap;
use std::sync::Arc;

use masm_core::wal::WalRecord;
use masm_core::{MasmConfig, MasmEngine, UpdateRecord};
use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice, MIB};

use crate::{scaled_masm_config, secs, Report, UpdateOp};

const LANES: u64 = 3;
const KEYS_PER_LANE: u64 = 512;
const BASE: Key = 1 << 40;

fn lane_key(lane: u64, j: u64) -> Key {
    BASE + lane * (1 << 20) + j % KEYS_PER_LANE
}

fn payload(schema: &Schema, v: u32) -> UpdateOp {
    let mut payload = schema.empty_payload();
    schema.set_u32(&mut payload, 0, v);
    UpdateOp::Replace(payload)
}

/// Crash images of the devices, and how many puts each lane had
/// returned before the plug was pulled.
struct CrashPoint {
    label: &'static str,
    acked: u64,
    disk: SimDevice,
    ssd: SimDevice,
    wal: SimDevice,
}

/// Where the first `RunsDeleted` after a `MigrationBegin` at or past
/// byte `from` of `wal` starts — the end of the migration's last
/// splice — or the end of the log when no migration began there.
fn mid_migration_cut(wal: &SimDevice, from: u64) -> u64 {
    let copy = wal.snapshot(SimClock::new()).expect("wal snapshot");
    let session = SessionHandle::fresh(copy.clock().clone());
    let bytes = session.read(&copy, 0, copy.len()).expect("wal bytes");
    let (mut at, mut migrating) = (from as usize, false);
    while let Some((record, used)) = WalRecord::decode(&bytes[at..]).expect("an intact log") {
        match record {
            WalRecord::MigrationBegin { .. } => migrating = true,
            WalRecord::RunsDeleted(_) if migrating => break,
            _ => {}
        }
        at += used;
    }
    at as u64
}

/// Recover from `point`, check the recovery contract there, and return
/// the point's table row.
fn recover(point: &CrashPoint, cfg: &MasmConfig, schema: &Schema) -> Vec<String> {
    let label = point.label;
    let clock = point.disk.clock().clone();
    let t0 = clock.now();
    let heap = Arc::new(TableHeap::new(point.disk.clone(), HeapConfig::default()));
    let (ssd, wal) = (point.ssd.clone(), point.wal.clone());
    let (engine, report) = MasmEngine::recover(heap, ssd, wal, schema.clone(), cfg.clone())
        .unwrap_or_else(|e| panic!("crash point '{label}' failed to recover: {e}"));
    let recovery_ns = clock.now() - t0;

    // The floor: each key's newest value among the acked puts. The
    // recovered value may be newer (durable but unacked), never older.
    let mut floor: HashMap<Key, u32> = HashMap::new();
    for j in 0..point.acked {
        for lane in 0..LANES {
            floor.insert(lane_key(lane, j), j as u32);
        }
    }
    let session = SessionHandle::fresh(clock);
    let got: HashMap<Key, u32> = engine
        .begin_scan(session.clone(), BASE, Key::MAX)
        .expect("post-recovery scan")
        .map(|r| (r.key, schema.get_u32(&r.payload, 0)))
        .collect();
    let lost = floor
        .iter()
        .filter(|(key, min)| got.get(*key).is_none_or(|v| v < min))
        .count();

    // The recovered engine stays live and sequential: fresh ingest on
    // every lane plus a full flush, on the devices recovery re-primed.
    for lane in 0..LANES {
        for j in 0..200 {
            let op = payload(schema, u32::MAX);
            engine.apply_update(&session, lane_key(lane, j), op).expect("post-recovery put");
        }
    }
    engine.flush_buffer(&session).expect("post-recovery flush");
    let random_writes = engine.stats().ssd.random_writes;

    assert_eq!(lost, 0, "crash '{label}' lost acknowledged updates");
    assert_eq!(random_writes, 0, "crash '{label}' wrote randomly");
    assert!(report.wal_records_replayed > 0, "crash '{label}' replayed nothing");
    let redone = report.redid_migration;
    assert_eq!(redone, label == "migrating", "crash '{label}' redid {redone}");
    if label == "torn_tail" {
        assert!(report.wal_torn_bytes > 0, "the torn point must truncate");
    }
    vec![
        label.to_string(),
        (point.acked * LANES).to_string(),
        report.updates_recovered.to_string(),
        report.runs_recovered.to_string(),
        report.wal_records_replayed.to_string(),
        report.wal_torn_bytes.to_string(),
        u8::from(redone).to_string(),
        format!("{:.3}", secs(recovery_ns)),
        lost.to_string(),
        random_writes.to_string(),
    ]
}

pub(crate) fn run(mb: u64) -> Report {
    let schema = Schema::synthetic_100b();
    let mut cfg = scaled_masm_config(mb * MIB);
    cfg.ssd_capacity = cfg.ssd_capacity.max(4 * 64 * 4096);

    let clock = SimClock::new();
    let device = |profile| SimDevice::in_memory(profile, clock.clone());
    let disk = device(DeviceProfile::hdd_barracuda());
    let ssd = device(DeviceProfile::ssd_x25e());
    let wal = device(DeviceProfile::ssd_x25e());
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let (s, c) = (schema.clone(), cfg.clone());
    let engine = MasmEngine::new(heap, ssd.clone(), wal.clone(), s, c).expect("a valid config");
    let session = SessionHandle::fresh(clock);
    // A table for the migrations to rewrite in place: per lane, the
    // keys just above the ones its updates touch.
    let rows = (0..LANES).flat_map(|lane| {
        let first = lane_key(lane, 0) + KEYS_PER_LANE;
        (first..first + KEYS_PER_LANE).map(|key| Record::new(key, schema.empty_payload()))
    });
    engine.load_table(&session, rows, 1.0).expect("bulk load");
    // Pull the plug: the WAL (its first `wal_len` bytes) before the
    // SSD, the heap disk last.
    let crash = |label, acked, wal_len| {
        let clock = SimClock::new();
        let wal = wal.snapshot_prefix(clock.clone(), wal_len).expect("wal snapshot");
        CrashPoint {
            label,
            acked,
            ssd: ssd.snapshot(clock.clone()).expect("ssd snapshot"),
            wal,
            disk: disk.snapshot(clock).expect("disk snapshot"),
        }
    };

    // Twice the flash budget in raw update bytes: with duplicates
    // folded, enough for migrations to come due.
    let probe = UpdateRecord::new(1, 0, payload(&schema, 0)).encoded_len() as u64;
    let per_lane = cfg.ssd_capacity * 2 / probe / LANES;

    let mut crashes = Vec::new();
    let load_points = [(per_lane / 8, "early"), (per_lane / 2, "mid"), (per_lane * 9 / 10, "late")];
    for j in 0..per_lane {
        if let Some(&(_, label)) = load_points.iter().find(|(at, _)| *at == j) {
            crashes.push(crash(label, j, wal.len()));
        }
        if engine.needs_migration() {
            let before = wal.len();
            engine.migrate(&session).expect("migration");
            if !crashes.iter().any(|p| p.label == "migrating") {
                crashes.push(crash("migrating", j, mid_migration_cut(&wal, before)));
            }
        }
        for lane in 0..LANES {
            let op = payload(&schema, j as u32);
            engine.apply_update(&session, lane_key(lane, j), op).expect("update");
        }
    }
    // The WAL's last append is the last lane's last put: cut mid-write,
    // that put never returned (the floor holds every lane to its puts
    // before the last).
    crashes.push(crash("torn_tail", per_lane - 1, wal.len() - 3));

    let rows: Vec<Vec<String>> = crashes.iter().map(|p| recover(p, &cfg, &schema)).collect();
    let mut report = Report::default();
    report.table(
        &format!(
            "Crash recovery under load — one engine, {LANES} key lanes, plug pulled mid-ingest \
             and mid-migration (table scale {mb} MiB)"
        ),
        &[
            "crash",
            "acked",
            "recovered",
            "runs",
            "replayed",
            "torn bytes",
            "migr redo",
            "recovery (s)",
            "lost",
            "random writes",
        ],
        &rows,
    );
    report.note(
        "shape: recovery replays only the redo log (runs and heap pages come back from\n\
         non-volatile state), so its cost tracks the update buffer, not the cache size;\n\
         an interrupted migration is re-driven, and torn tails truncate to the last\n\
         durable record without losing acked updates.",
    );
    report
}
