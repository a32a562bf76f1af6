//! Crash-under-load torture tests: snapshot the devices of a live,
//! concurrently-ingesting engine at arbitrary moments ("pull the
//! plug"), recover from the snapshots, and verify the recovery
//! contract:
//!
//! * every *acknowledged* update survives — an `apply_update`/`put`
//!   that returned before the crash is in the recovered state (the
//!   WAL's stable-tail group commit guarantees its record is inside
//!   the contiguous valid log prefix),
//! * recovery never panics and never loses acked data for *any* crash
//!   point, including cuts through the middle of a WAL record (torn
//!   tails are truncated, not fatal),
//! * the recovered engine keeps design goal 2: `random_writes == 0`
//!   on the recovered devices, through migration redo and fresh
//!   post-recovery ingest (write heads are re-primed at the recovered
//!   append points),
//! * recovery is idempotent: recovering, crashing immediately, and
//!   recovering again yields the same state.
//!
//! Snapshot ordering is the load-bearing subtlety: each shard's WAL is
//! snapshotted *before* its SSD, and the heap disk last. The engine
//! always makes payload bytes durable before appending the WAL record
//! that names them (run bytes before `RunCreated`, heap pages before
//! `MapSplice`), so a WAL-first snapshot can name only payloads the
//! later device snapshots contain — exactly the guarantee a real
//! single-cache-flush crash gives.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use proptest::prelude::*;

use masm_core::config::MasmConfig;
use masm_core::update::UpdateOp;
use masm_core::{MasmEngine, ShardedEngine, ShardingConfig, SplitPolicy};
use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};
use masm_telemetry::{TraceConfig, Tracer};

fn schema() -> Schema {
    Schema::synthetic_100b()
}

fn payload(v: u32) -> Vec<u8> {
    let s = schema();
    let mut p = s.empty_payload();
    s.set_u32(&mut p, 0, v);
    p
}

const BASE: u64 = 100_000;

/// One ingest lane's acknowledgement log: `(key, value)` pushed only
/// after the corresponding put returned (i.e. after its WAL record
/// became durable).
type AckLog = Arc<Mutex<Vec<(Key, u32)>>>;

/// One crash point: consistent device snapshots plus, per lane, how
/// many acks were durable before the snapshot began.
struct CrashPoint {
    acked: Vec<usize>,
    disk: SimDevice,
    ssds: Vec<SimDevice>,
    wals: Vec<SimDevice>,
}

/// Snapshot a set of shard devices mid-flight: per shard WAL first,
/// then SSD; heap disk last (see module docs for why this order).
fn crash_snapshot(disk: &SimDevice, ssds: &[SimDevice], wals: &[SimDevice]) -> CrashPoint {
    let clock = SimClock::new();
    let mut snap_ssds = Vec::with_capacity(ssds.len());
    let mut snap_wals = Vec::with_capacity(wals.len());
    for (ssd, wal) in ssds.iter().zip(wals) {
        snap_wals.push(wal.snapshot(clock.clone()).unwrap());
        snap_ssds.push(ssd.snapshot(clock.clone()).unwrap());
    }
    CrashPoint {
        acked: Vec::new(),
        disk: disk.snapshot(clock).unwrap(),
        ssds: snap_ssds,
        wals: snap_wals,
    }
}

/// Per-key largest acked value among each lane's first `acked[lane]`
/// acknowledgements.
fn acked_floor(acks: &[AckLog], cut: &[usize]) -> HashMap<Key, u32> {
    let mut floor: HashMap<Key, u32> = HashMap::new();
    for (lane, list) in acks.iter().enumerate() {
        let list = list.lock().unwrap();
        for &(key, j) in &list[..cut[lane]] {
            let e = floor.entry(key).or_insert(j);
            *e = (*e).max(j);
        }
    }
    floor
}

/// Three ingest lanes hammer a 3-shard engine with live background
/// workers; the main thread pulls the plug at three load levels. Every
/// crash point must recover with zero lost acked updates, zero random
/// SSD writes, and a still-healthy engine afterwards.
#[test]
fn sharded_crash_under_load_loses_no_acked_update() {
    const LANES: usize = 3;
    const PER_LANE: u32 = 1200;
    const KEYS_PER_LANE: u64 = 40;

    let mut cfg = MasmConfig::small_for_tests();
    cfg.background_workers = 2;
    cfg.sharding = ShardingConfig {
        shards: 3,
        split_policy: SplitPolicy::Explicit(vec![101_000, 102_000]),
        max_concurrent_migrations: 1,
    };

    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let ssds: Vec<SimDevice> = (0..LANES)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    let wals: Vec<SimDevice> = (0..LANES)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    let engine =
        ShardedEngine::new(heap, ssds.clone(), wals.clone(), schema(), cfg.clone()).unwrap();
    let session = SessionHandle::fresh(clock.clone());
    engine
        .load_table(
            &session,
            (0..100u64).map(|i| Record::new(i * 2, payload(i as u32))),
            1.0,
        )
        .unwrap();

    let acks: Vec<AckLog> = (0..LANES)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut lanes = Vec::new();
    for (lane, acked) in acks.iter().enumerate() {
        let engine = Arc::clone(&engine);
        let clock = clock.clone();
        let acked = Arc::clone(acked);
        lanes.push(thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            for j in 0..PER_LANE {
                // Lane k writes into shard k's key range.
                let key = BASE + lane as u64 * 1000 + j as u64 % KEYS_PER_LANE;
                engine
                    .put(&session, key, UpdateOp::Replace(payload(j)))
                    .unwrap();
                // The put returned: its WAL record is durable. Recording
                // the ack *after* the return means any crash snapshot
                // taken after this push must contain the update.
                acked.lock().unwrap().push((key, j));
            }
        }));
    }

    // Pull the plug at three points while the lanes are running.
    let mut crashes: Vec<CrashPoint> = Vec::new();
    for threshold in [500usize, 1800, 3300] {
        loop {
            let total: usize = acks.iter().map(|a| a.lock().unwrap().len()).sum();
            if total >= threshold {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(1));
        }
        let cut: Vec<usize> = acks.iter().map(|a| a.lock().unwrap().len()).collect();
        let mut point = crash_snapshot(&disk, &ssds, &wals);
        point.acked = cut;
        crashes.push(point);
    }
    for l in lanes {
        l.join().unwrap();
    }
    engine.shutdown();

    for (c, point) in crashes.into_iter().enumerate() {
        let heap = Arc::new(TableHeap::new(point.disk.clone(), HeapConfig::default()));
        // Rings large enough that a migration redo cannot overflow them.
        let tracer = Arc::new(Tracer::new(TraceConfig {
            ring_capacity: 1 << 16,
            ..TraceConfig::default()
        }));
        let (recovered, report) = ShardedEngine::recover_traced(
            heap,
            point.ssds.clone(),
            point.wals.clone(),
            schema(),
            cfg.clone(),
            Some(&tracer),
        )
        .unwrap_or_else(|e| panic!("crash point {c} failed to recover: {e}"));

        // The flight recording carries the recovery on each shard's own
        // track (pid = shard): one `recovery` span per shard, a
        // torn-tail instant exactly where a tail was truncated, and one
        // redo instant per re-driven migration.
        let records = tracer.take_records();
        let pids_of = |name: &str| -> Vec<u32> {
            let mut pids: Vec<u32> = records
                .iter()
                .filter(|r| r.name == name)
                .map(|r| r.track.pid)
                .collect();
            pids.sort_unstable();
            pids
        };
        let shards_where = |f: &dyn Fn(&masm_core::RecoveryReport) -> bool| -> Vec<u32> {
            (0..LANES as u32)
                .filter(|&i| f(&report.per_shard[i as usize]))
                .collect()
        };
        assert_eq!(pids_of("recovery"), shards_where(&|_| true), "crash {c}");
        assert_eq!(
            pids_of("recovery.torn_tail"),
            shards_where(&|r| r.wal_torn_bytes > 0),
            "crash {c}"
        );
        assert_eq!(
            pids_of("recovery.migration_redo"),
            shards_where(&|r| r.redid_migration),
            "crash {c}"
        );
        assert_eq!(
            pids_of("recovery.migration_redo").len(),
            report.migrations_redriven
        );

        // Every update acked before the snapshot is in the recovered
        // state (possibly superseded by a newer durable-but-unacked
        // value for the same key — never by an older one).
        let floor = acked_floor(&acks, &point.acked);
        let s = schema();
        let got: HashMap<Key, u32> = recovered
            .scan(BASE, u64::MAX)
            .unwrap()
            .map(|r| (r.key, s.get_u32(&r.payload, 0)))
            .collect();
        for (key, min_j) in &floor {
            let j = got
                .get(key)
                .unwrap_or_else(|| panic!("crash {c}: acked key {key} lost (acked value {min_j})"));
            assert!(
                j >= min_j,
                "crash {c}: key {key} went backwards: acked {min_j}, recovered {j}"
            );
        }
        // Whatever is there must be a value some lane actually wrote.
        for (key, j) in &got {
            let offset = (key - BASE) % 1000;
            assert_eq!(
                u64::from(*j) % KEYS_PER_LANE,
                offset % KEYS_PER_LANE,
                "crash {c}: key {key} holds a value never written to it"
            );
            assert!(*j < PER_LANE);
        }

        assert_eq!(report.per_shard.len(), LANES);

        // The recovered engine is live: more ingest, a migration-level
        // flush, a consistent scan — all with sequential-only SSD I/O
        // on the snapshot devices (heads re-primed by recovery).
        let session = SessionHandle::fresh(point.disk.clock().clone());
        for lane in 0..LANES as u64 {
            for j in 0..50u32 {
                let key = BASE + lane * 1000 + u64::from(j) % KEYS_PER_LANE;
                recovered
                    .put(&session, key, UpdateOp::Replace(payload(PER_LANE + j)))
                    .unwrap();
            }
        }
        recovered.flush_all(&session).unwrap();
        let after: Vec<Key> = recovered
            .scan(BASE, u64::MAX)
            .unwrap()
            .map(|r| r.key)
            .collect();
        assert!(
            after.windows(2).all(|w| w[0] < w[1]),
            "crash {c}: scan order"
        );
        let stats = recovered.stats();
        for (i, shard) in stats.per_shard.iter().enumerate() {
            assert_eq!(
                shard.ssd.random_writes, 0,
                "crash {c}: random writes in recovered shard {i}"
            );
        }
        recovered.shutdown();
    }
}

/// The unsharded variant: two lanes on one engine with background
/// workers, plug pulled twice, recovered via [`MasmEngine::recover`].
#[test]
fn unsharded_crash_under_load_loses_no_acked_update() {
    const LANES: usize = 2;
    const PER_LANE: u32 = 1000;
    const KEYS_PER_LANE: u64 = 30;

    let mut cfg = MasmConfig::small_for_tests();
    cfg.background_workers = 2;

    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let engine = MasmEngine::new(heap, ssd.clone(), wal.clone(), schema(), cfg.clone()).unwrap();
    let session = SessionHandle::fresh(clock.clone());
    engine
        .load_table(
            &session,
            (0..100u64).map(|i| Record::new(i * 2, payload(i as u32))),
            1.0,
        )
        .unwrap();

    let acks: Vec<AckLog> = (0..LANES)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut lanes = Vec::new();
    for (lane, acked) in acks.iter().enumerate() {
        let engine = Arc::clone(&engine);
        let clock = clock.clone();
        let acked = Arc::clone(acked);
        lanes.push(thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            for j in 0..PER_LANE {
                let key = BASE + lane as u64 * 1000 + u64::from(j) % KEYS_PER_LANE;
                engine
                    .apply_update(&session, key, UpdateOp::Replace(payload(j)))
                    .unwrap();
                acked.lock().unwrap().push((key, j));
            }
        }));
    }

    let mut crashes: Vec<CrashPoint> = Vec::new();
    for threshold in [400usize, 1500] {
        loop {
            let total: usize = acks.iter().map(|a| a.lock().unwrap().len()).sum();
            if total >= threshold {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(1));
        }
        let cut: Vec<usize> = acks.iter().map(|a| a.lock().unwrap().len()).collect();
        let mut point = crash_snapshot(
            &disk,
            std::slice::from_ref(&ssd),
            std::slice::from_ref(&wal),
        );
        point.acked = cut;
        crashes.push(point);
    }
    for l in lanes {
        l.join().unwrap();
    }
    engine.shutdown();

    for (c, point) in crashes.into_iter().enumerate() {
        let heap = Arc::new(TableHeap::new(point.disk.clone(), HeapConfig::default()));
        let (recovered, report) = MasmEngine::recover(
            heap,
            point.ssds[0].clone(),
            point.wals[0].clone(),
            schema(),
            cfg.clone(),
        )
        .unwrap_or_else(|e| panic!("crash point {c} failed to recover: {e}"));

        let floor = acked_floor(&acks, &point.acked);
        let s = schema();
        let session = SessionHandle::fresh(point.disk.clock().clone());
        let got: HashMap<Key, u32> = recovered
            .begin_scan(session.clone(), BASE, u64::MAX)
            .unwrap()
            .map(|r| (r.key, s.get_u32(&r.payload, 0)))
            .collect();
        for (key, min_j) in &floor {
            let j = got
                .get(key)
                .unwrap_or_else(|| panic!("crash {c}: acked key {key} lost"));
            assert!(j >= min_j, "crash {c}: key {key}: acked {min_j}, got {j}");
        }
        assert!(
            report.wal_records_replayed > 0,
            "crash {c}: nothing replayed?"
        );

        // Post-recovery ingest stays sequential on the snapshot devices.
        for j in 0..80u32 {
            let key = BASE + u64::from(j) % KEYS_PER_LANE;
            recovered
                .apply_update(&session, key, UpdateOp::Replace(payload(PER_LANE + j)))
                .unwrap();
        }
        recovered.flush_buffer(&session).unwrap();
        let stats = recovered.stats();
        assert_eq!(
            stats.ssd.random_writes, 0,
            "crash {c}: random writes after recovery"
        );
        recovered.shutdown();
    }
}

/// Golden pre-crash state for the WAL-prefix sweep: a serial workload
/// with a buffer flush and a migration in the middle, frozen devices,
/// and the serial oracle after every update prefix.
struct Golden {
    disk: SimDevice,
    ssd: SimDevice,
    wal: SimDevice,
    /// `models[m]` = per-key state after the first `m` updates.
    models: Vec<HashMap<Key, u32>>,
    cfg: MasmConfig,
}

const SWEEP_UPDATES: u32 = 48;
const SWEEP_KEYS: u64 = 10;

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let cfg = MasmConfig::small_for_tests();
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
        let engine =
            MasmEngine::new(heap, ssd.clone(), wal.clone(), schema(), cfg.clone()).unwrap();
        let session = SessionHandle::fresh(clock);
        engine
            .load_table(
                &session,
                (0..50u64).map(|i| Record::new(i * 2, payload(i as u32))),
                1.0,
            )
            .unwrap();

        let mut models = vec![HashMap::new()];
        for j in 0..SWEEP_UPDATES {
            let key = BASE + u64::from(j) % SWEEP_KEYS;
            engine
                .apply_update(&session, key, UpdateOp::Replace(payload(j)))
                .unwrap();
            let mut m = models.last().unwrap().clone();
            m.insert(key, j);
            models.push(m);
            // Force run creation and an in-place migration mid-stream so
            // prefix cuts land inside every record type, not just
            // updates.
            if j == 19 {
                engine.flush_buffer(&session).unwrap();
            }
            if j == 33 {
                engine.migrate(&session).unwrap();
            }
        }
        Golden {
            disk,
            ssd,
            wal,
            models,
            cfg,
        }
    })
}

proptest! {
    /// Crash at *any* WAL byte offset — including mid-record torn
    /// tails — and recovery must (a) never panic or error, (b) produce
    /// exactly the state after some prefix of the serial update
    /// stream, and (c) be idempotent under an immediate second crash
    /// and recovery.
    #[test]
    fn recovery_at_every_wal_prefix_is_a_serial_prefix(frac in 0u64..=10_000) {
        let g = golden();
        let cut = g.wal.len() * frac / 10_000;
        let clock = SimClock::new();
        let disk = g.disk.snapshot(clock.clone()).unwrap();
        let ssd = g.ssd.snapshot(clock.clone()).unwrap();
        let wal = g.wal.snapshot_prefix(clock.clone(), cut).unwrap();

        let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
        let (engine, report) =
            MasmEngine::recover(heap, ssd.clone(), wal.clone(), schema(), g.cfg.clone())
                .expect("every WAL prefix must recover");
        prop_assert!(report.wal_torn_bytes <= cut);

        let s = schema();
        let session = SessionHandle::fresh(clock.clone());
        let got: HashMap<Key, u32> = engine
            .begin_scan(session.clone(), BASE, u64::MAX)
            .unwrap()
            .map(|r| (r.key, s.get_u32(&r.payload, 0)))
            .collect();
        prop_assert!(
            g.models.contains(&got),
            "cut {} recovered a state that is no serial prefix: {:?}",
            cut,
            got
        );

        // Crash again immediately (no new updates): recovering the
        // same devices a second time reproduces the same state.
        drop(engine);
        let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
        let (engine2, _) = MasmEngine::recover(heap, ssd, wal, schema(), g.cfg.clone())
            .expect("double recovery must succeed");
        let again: HashMap<Key, u32> = engine2
            .begin_scan(session, BASE, u64::MAX)
            .unwrap()
            .map(|r| (r.key, s.get_u32(&r.payload, 0)))
            .collect();
        prop_assert_eq!(got, again, "double recovery diverged at cut {}", cut);
    }
}

/// A 2-shard deployment's manifests pin shard identity and config: a
/// swapped device set, a missing manifest, and a layout-shaping config
/// change must all be rejected before any run bytes are trusted.
#[test]
fn manifest_validation_rejects_mismatched_deployments() {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding = ShardingConfig {
        shards: 2,
        split_policy: SplitPolicy::Explicit(vec![1000]),
        max_concurrent_migrations: 1,
    };
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let ssds: Vec<SimDevice> = (0..2)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    let wals: Vec<SimDevice> = (0..2)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    let engine =
        ShardedEngine::new(heap, ssds.clone(), wals.clone(), schema(), cfg.clone()).unwrap();
    let session = SessionHandle::fresh(clock.clone());
    engine.put(&session, 1, UpdateOp::Delete).unwrap();
    engine.put(&session, 2000, UpdateOp::Delete).unwrap();
    engine.shutdown();
    drop(engine);

    let recover = |ssds: Vec<SimDevice>, wals: Vec<SimDevice>, cfg: MasmConfig| {
        let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
        ShardedEngine::recover(heap, ssds, wals, schema(), cfg)
    };

    // Swapped shard devices: each manifest names its true shard id.
    let err = recover(
        vec![ssds[1].clone(), ssds[0].clone()],
        vec![wals[1].clone(), wals[0].clone()],
        cfg.clone(),
    )
    .expect_err("swapped devices must be rejected");
    assert!(err.to_string().contains("manifest"), "{err}");

    // A layout-shaping config change invalidates the fingerprint.
    let mut changed = cfg.clone();
    changed.bloom_bits_per_key += 1;
    let err = recover(ssds.clone(), wals.clone(), changed)
        .expect_err("changed layout config must be rejected");
    assert!(err.to_string().contains("fingerprint"), "{err}");

    // The untouched set still recovers.
    let (recovered, report) = recover(ssds.clone(), wals.clone(), cfg).unwrap();
    assert_eq!(report.per_shard.len(), 2);
    assert_eq!(report.updates_recovered(), 2);
    recovered.shutdown();
}

/// A WAL without a manifest (a standalone engine's log) cannot be
/// recovered as a sharded deployment.
#[test]
fn sharded_recovery_requires_a_manifest() {
    let cfg = MasmConfig::small_for_tests();
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let engine = MasmEngine::new(heap, ssd.clone(), wal.clone(), schema(), cfg.clone()).unwrap();
    let session = SessionHandle::fresh(clock);
    engine.apply_update(&session, 7, UpdateOp::Delete).unwrap();
    drop(engine);

    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let err = ShardedEngine::recover(heap, vec![ssd], vec![wal], schema(), cfg)
        .expect_err("manifest-less WAL must be rejected");
    assert!(err.to_string().contains("manifest"), "{err}");
}
