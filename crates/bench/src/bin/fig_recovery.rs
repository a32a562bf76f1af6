//! Crash recovery under load: pull the plug on a live sharded
//! deployment and measure what comes back.
//!
//! The paper's §3.6 recovery argument is that MaSM only needs to
//! rebuild the small in-memory update buffer from the redo log —
//! materialized runs, the heap, and interrupted migrations all recover
//! from non-volatile state plus idempotent redo. This figure stresses
//! that claim at its hardest point: a 3-shard engine with background
//! workers mid-flight, concurrent ingest lanes, and device snapshots
//! taken at arbitrary moments ("the power cable") — including one crash
//! point whose WAL is additionally cut mid-record to force a torn tail.
//!
//! For every crash point the binary recovers via
//! [`masm_core::ShardedEngine::recover`] and verifies the recovery
//! contract:
//!
//! * **zero lost acknowledged updates** — every `put` that returned
//!   before the snapshot began is present in a post-recovery scan,
//! * **zero random SSD writes** — recovery re-primes the sequential
//!   write heads, so migration redo and fresh post-recovery ingest on
//!   the recovered devices stay append-only (design goal 2 survives the
//!   crash),
//! * torn WAL tails are truncated and counted, never fatal.
//!
//! Snapshot ordering mirrors a real single-point-in-time crash: each
//! shard's WAL is snapshotted before its SSD and the heap disk last, so
//! a WAL record can only name payload bytes the other snapshots
//! contain (the engine makes run bytes and heap pages durable before
//! logging them).
//!
//! Output: a summary table plus one `ROW:{json}` line per crash point
//! with `lost_updates`, `random_writes`, the replay/torn-tail counts,
//! and the virtual-time recovery cost. CI smoke-runs this binary at
//! `MASM_BENCH_MB=8` and greps the rows for `"lost_updates":0` and
//! `"random_writes":0`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread;

use masm_bench::*;
use masm_core::update::UpdateRecord;
use masm_core::ShardedEngine;
use masm_pagestore::{HeapConfig, Key, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice, MIB};
use masm_telemetry::json::JsonObj;

const LANES: u64 = 3;
const KEYS_PER_LANE: u64 = 512;
const BASE: Key = 1 << 40;

fn lane_key(lane: u64, j: u64) -> Key {
    BASE + lane * (1 << 20) + j % KEYS_PER_LANE
}

/// One ingest lane's acknowledgement log: `(key, value)` pushed only
/// after the corresponding put returned (i.e. after its WAL record
/// became durable).
type AckLog = Arc<Mutex<Vec<(Key, u32)>>>;

struct CrashPoint {
    label: &'static str,
    /// Per-lane count of acks durable before the snapshot began.
    acked: Vec<usize>,
    disk: SimDevice,
    ssds: Vec<SimDevice>,
    wals: Vec<SimDevice>,
}

struct Outcome {
    label: &'static str,
    acked_at_crash: usize,
    lost_updates: u64,
    updates_recovered: u64,
    runs_recovered: u64,
    records_replayed: u64,
    torn_tails: u64,
    torn_bytes: u64,
    migrations_redriven: usize,
    recovery_virtual_ns: u64,
    random_writes: u64,
}

/// Snapshot the deployment mid-flight: per shard WAL before SSD, heap
/// disk last (see module docs).
fn crash_snapshot(
    label: &'static str,
    disk: &SimDevice,
    ssds: &[SimDevice],
    wals: &[SimDevice],
    acked: Vec<usize>,
) -> CrashPoint {
    let clock = SimClock::new();
    let mut snap_ssds = Vec::with_capacity(ssds.len());
    let mut snap_wals = Vec::with_capacity(wals.len());
    for (ssd, wal) in ssds.iter().zip(wals) {
        snap_wals.push(wal.snapshot(clock.clone()).expect("wal snapshot"));
        snap_ssds.push(ssd.snapshot(clock.clone()).expect("ssd snapshot"));
    }
    CrashPoint {
        label,
        acked,
        disk: disk.snapshot(clock).expect("disk snapshot"),
        ssds: snap_ssds,
        wals: snap_wals,
    }
}

fn recover_and_verify(
    point: &CrashPoint,
    cfg: &masm_core::MasmConfig,
    schema: &Schema,
    acks: &[AckLog],
) -> Outcome {
    let clock = point.disk.clock().clone();
    let t0 = clock.now();
    let heap = Arc::new(TableHeap::new(point.disk.clone(), HeapConfig::default()));
    let (engine, report) = ShardedEngine::recover(
        heap,
        point.ssds.clone(),
        point.wals.clone(),
        schema.clone(),
        cfg.clone(),
        None,
    )
    .unwrap_or_else(|e| panic!("crash point '{}' failed to recover: {e}", point.label));
    let recovery_virtual_ns = clock.now() - t0;

    // Per-key floor: the newest value each lane had acknowledged before
    // the plug was pulled. The recovered value may be newer (durable
    // but unacked), never older or missing.
    let mut floor: HashMap<Key, u32> = HashMap::new();
    for (lane, list) in acks.iter().enumerate() {
        let list = list.lock().unwrap();
        for &(key, j) in &list[..point.acked[lane]] {
            let e = floor.entry(key).or_insert(j);
            *e = (*e).max(j);
        }
    }
    let got: HashMap<Key, u32> = engine
        .scan(BASE, u64::MAX)
        .expect("post-recovery scan")
        .map(|r| (r.key, schema.get_u32(&r.payload, 0)))
        .collect();
    let lost_updates = floor
        .iter()
        .filter(|(key, min_j)| got.get(*key).is_none_or(|j| j < min_j))
        .count() as u64;

    // The recovered engine must stay live and sequential: fresh ingest
    // on every lane plus a full flush, all on the snapshot devices
    // whose write heads recovery re-primed.
    let session = SessionHandle::fresh(clock);
    for lane in 0..LANES {
        for j in 0..200u64 {
            let mut payload = schema.empty_payload();
            schema.set_u32(&mut payload, 0, u32::MAX);
            engine
                .put(&session, lane_key(lane, j), UpdateOp::Replace(payload))
                .expect("post-recovery put");
        }
    }
    engine.flush_all(&session).expect("post-recovery flush");
    let stats = engine.stats();
    let random_writes = stats.total.ssd.random_writes;
    engine.shutdown();

    Outcome {
        label: point.label,
        acked_at_crash: point.acked.iter().sum(),
        lost_updates,
        updates_recovered: report.updates_recovered(),
        runs_recovered: report.runs_recovered() as u64,
        records_replayed: report.wal_records_replayed(),
        torn_tails: report.torn_tails() as u64,
        torn_bytes: report.wal_torn_bytes(),
        migrations_redriven: report.migrations_redriven,
        recovery_virtual_ns,
        random_writes,
    }
}

fn main() -> Result<(), String> {
    let mb = scale_mb()?;
    let schema = Schema::synthetic_100b();
    let mut cfg = scaled_masm_config(mb * MIB);
    cfg.ssd_capacity = cfg.ssd_capacity.max(4 * 64 * 4096);
    cfg.background_workers = 2;
    cfg.sharding.splits = (1..LANES).map(|k| BASE + k * (1 << 20)).collect();

    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let ssds: Vec<SimDevice> = (0..LANES)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    let wals: Vec<SimDevice> = (0..LANES)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    let engine = ShardedEngine::new(
        heap,
        ssds.clone(),
        wals.clone(),
        schema.clone(),
        cfg.clone(),
    )
    .expect("sharded config");

    // Size the stream against the flash budget, like the ingest sweep.
    let probe = UpdateRecord::new(1, 0, UpdateOp::Replace(schema.empty_payload())).encoded_len();
    let per_lane = (cfg.ssd_capacity * 50 / 100 / probe as u64 / LANES).max(1_000);
    let total = (LANES * per_lane) as usize;

    let acks: Vec<AckLog> = (0..LANES)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut lanes = Vec::new();
    for lane in 0..LANES {
        let engine = Arc::clone(&engine);
        let clock = clock.clone();
        let schema = schema.clone();
        let acked = Arc::clone(&acks[lane as usize]);
        lanes.push(thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            for j in 0..per_lane {
                let mut payload = schema.empty_payload();
                schema.set_u32(&mut payload, 0, j as u32);
                loop {
                    match engine.put(
                        &session,
                        lane_key(lane, j),
                        UpdateOp::Replace(payload.clone()),
                    ) {
                        Ok(_) => break,
                        Err(masm_core::MasmError::CacheFull { .. }) => {
                            thread::sleep(std::time::Duration::from_millis(1));
                        }
                        Err(e) => panic!("update failed: {e}"),
                    }
                }
                // Recorded only after the put returned, i.e. after its
                // WAL record became durable — so every entry counted at
                // snapshot time is guaranteed to be in the snapshot.
                acked.lock().unwrap().push((lane_key(lane, j), j as u32));
            }
        }));
    }

    // Pull the plug at three load levels while the lanes run.
    let mut crashes: Vec<CrashPoint> = Vec::new();
    for (label, threshold) in [
        ("early", total / 8),
        ("mid", total / 2),
        ("late", total * 9 / 10),
    ] {
        loop {
            let done: usize = acks.iter().map(|a| a.lock().unwrap().len()).sum();
            if done >= threshold {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(1));
        }
        let cut: Vec<usize> = acks.iter().map(|a| a.lock().unwrap().len()).collect();
        crashes.push(crash_snapshot(label, &disk, &ssds, &wals, cut));
    }
    for lane in lanes {
        lane.join().expect("ingest lane");
    }
    engine.shutdown();

    // A fourth crash point that also tears every WAL mid-record: cut a
    // few bytes off each tail so recovery must truncate, not just stop.
    {
        let clock = SimClock::new();
        let cut: Vec<usize> = acks.iter().map(|a| a.lock().unwrap().len()).collect();
        // Only acks whose records survive the cut are guaranteed; a
        // 3-byte tail cut can only damage the final record of each WAL,
        // so back each lane's floor off by one update to stay sound.
        let cut = cut.iter().map(|&n| n.saturating_sub(1)).collect();
        let mut snap_ssds = Vec::new();
        let mut snap_wals = Vec::new();
        for (ssd, wal) in ssds.iter().zip(&wals) {
            let torn_len = wal.len().saturating_sub(3);
            snap_wals.push(
                wal.snapshot_prefix(clock.clone(), torn_len)
                    .expect("torn wal"),
            );
            snap_ssds.push(ssd.snapshot(clock.clone()).expect("ssd snapshot"));
        }
        crashes.push(CrashPoint {
            label: "torn_tail",
            acked: cut,
            disk: disk.snapshot(clock).expect("disk snapshot"),
            ssds: snap_ssds,
            wals: snap_wals,
        });
    }

    let outcomes: Vec<Outcome> = crashes
        .iter()
        .map(|p| recover_and_verify(p, &cfg, &schema, &acks))
        .collect();

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.to_string(),
                o.acked_at_crash.to_string(),
                o.updates_recovered.to_string(),
                o.runs_recovered.to_string(),
                o.records_replayed.to_string(),
                o.torn_tails.to_string(),
                o.migrations_redriven.to_string(),
                format!("{:.3}", secs(o.recovery_virtual_ns)),
                o.lost_updates.to_string(),
                o.random_writes.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        Report::default().table(
            &format!(
                "Crash recovery under load — {LANES}-shard engine, background workers, \
                 plug pulled mid-ingest (table scale {mb} MiB)"
            ),
            &[
                "crash",
                "acked",
                "recovered",
                "runs",
                "replayed",
                "torn",
                "migr redo",
                "recovery (s)",
                "lost",
                "random writes",
            ],
            &rows,
        )
    );
    println!(
        "\nshape: recovery replays only the redo log (runs and heap pages come back from\n\
         non-volatile state), so its cost tracks the update buffer, not the cache size;\n\
         torn tails truncate to the last durable record without losing acked updates."
    );
    for o in &outcomes {
        let mut row = JsonObj::new();
        row.str("crash", o.label)
            .u64("acked_at_crash", o.acked_at_crash as u64)
            .u64("lost_updates", o.lost_updates)
            .u64("updates_recovered", o.updates_recovered)
            .u64("runs_recovered", o.runs_recovered)
            .u64("wal_records_replayed", o.records_replayed)
            .u64("wal_torn_tails", o.torn_tails)
            .u64("wal_torn_bytes", o.torn_bytes)
            .u64("migrations_redriven", o.migrations_redriven as u64)
            .u64("recovery_virtual_ns", o.recovery_virtual_ns)
            .u64("random_writes", o.random_writes);
        println!("ROW:{}", row.finish());
    }

    // Acceptance: the recovery contract holds at every crash point.
    for o in &outcomes {
        assert_eq!(
            o.lost_updates, 0,
            "crash '{}' lost acknowledged updates",
            o.label
        );
        assert_eq!(
            o.random_writes, 0,
            "crash '{}' broke design goal 2 after recovery",
            o.label
        );
        assert!(
            o.records_replayed > 0,
            "crash '{}' replayed nothing",
            o.label
        );
    }
    let torn = outcomes.last().expect("torn-tail point");
    assert!(
        torn.torn_tails > 0 && torn.torn_bytes > 0,
        "the torn-tail crash point must exercise truncation"
    );
    println!(
        "\nOK: {} crash points recovered, 0 lost acked updates, 0 random writes, \
         torn tails truncated ({} bytes at the '{}' point)",
        outcomes.len(),
        torn.torn_bytes,
        torn.label
    );
    Ok(())
}
