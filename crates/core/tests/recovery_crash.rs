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
use masm_core::{MasmEngine, MasmError, MasmResult, RecoveryReport, ShardedEngine};
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

/// The table under torture, behind either door.
enum Table {
    Standalone(Arc<MasmEngine>),
    Sharded(Arc<ShardedEngine>),
}
use Table::{Sharded, Standalone};

impl Table {
    /// Recover the table from a crash point through the matching
    /// door; also the per-shard reports and the migrations re-driven.
    fn recover(
        cfg: &MasmConfig,
        sharded: bool,
        p: &CrashPoint,
        tracer: &Arc<Tracer>,
    ) -> MasmResult<(Table, Vec<RecoveryReport>, usize)> {
        let heap = Arc::new(TableHeap::new(p.disk.clone(), HeapConfig::default()));
        let (ssds, wals, cfg) = (p.ssds.clone(), p.wals.clone(), cfg.clone());
        if sharded {
            let (e, r) = ShardedEngine::recover(heap, ssds, wals, schema(), cfg, Some(tracer))?;
            return Ok((Sharded(e), r.per_shard, r.migrations_redriven));
        }
        let (ssd, wal, tracer) = (ssds[0].clone(), wals[0].clone(), Arc::clone(tracer));
        let (e, r) = MasmEngine::recover_traced(heap, ssd, wal, schema(), cfg, Some(tracer))?;
        Ok((Standalone(e), vec![r], r.redid_migration as usize))
    }

    fn put(&self, session: &SessionHandle, key: Key, v: u32) {
        let op = UpdateOp::Replace(payload(v));
        match self {
            Standalone(e) => e.apply_update(session, key, op),
            Sharded(e) => e.put(session, key, op),
        }
        .unwrap();
    }

    /// `(key, value)` of every row from `BASE` up, in scan order.
    fn rows(&self, session: &SessionHandle) -> Vec<(Key, u32)> {
        let s = schema();
        let row = |r: Record| (r.key, s.get_u32(&r.payload, 0));
        match self {
            Standalone(e) => {
                let scan = e.begin_scan(session.clone(), BASE, u64::MAX);
                scan.unwrap().map(row).collect()
            }
            Sharded(e) => e.scan(BASE, u64::MAX).unwrap().map(row).collect(),
        }
    }

    /// The engines, by shard id (they share one worker pool).
    fn shards(&self) -> &[Arc<MasmEngine>] {
        match self {
            Standalone(e) => std::slice::from_ref(e),
            Sharded(e) => e.shards(),
        }
    }
}

/// Three ingest lanes hammer a table with live background workers — a
/// standalone engine (`splits: None`) or one shard per lane — and the
/// main thread pulls the plug at three load levels. Every crash point
/// must recover with no acked update lost, no random SSD write, the
/// same state when recovered twice, and a healthy engine afterwards.
fn crash_under_load_loses_no_acked_update(splits: Option<Vec<Key>>) {
    const LANES: usize = 3;
    const PER_LANE: u32 = 1200;
    const KEYS_PER_LANE: u64 = 40;

    let mut cfg = MasmConfig::small_for_tests();
    cfg.background_workers = 2;
    let sharded = splits.is_some();
    cfg.sharding.splits = splits.unwrap_or_default();
    let shards = cfg.sharding.splits.len() + 1;

    let clock = SimClock::new();
    let device = |profile| SimDevice::in_memory(profile, clock.clone());
    let disk = device(DeviceProfile::hdd_barracuda());
    let ssd = |_| device(DeviceProfile::ssd_x25e());
    let ssds: Vec<SimDevice> = (0..shards).map(ssd).collect();
    let wals: Vec<SimDevice> = (0..shards).map(ssd).collect();
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let (s, c) = (schema(), cfg.clone());
    let table = Arc::new(if sharded {
        Sharded(ShardedEngine::new(heap, ssds.clone(), wals.clone(), s, c).unwrap())
    } else {
        Standalone(MasmEngine::new(heap, ssds[0].clone(), wals[0].clone(), s, c).unwrap())
    });
    let session = SessionHandle::fresh(clock.clone());
    let base = (0..100u64).map(|i| Record::new(i * 2, payload(i as u32)));
    match &*table {
        Standalone(e) => e.load_table(&session, base, 1.0).unwrap(),
        Sharded(e) => e.load_table(&session, base, 1.0).unwrap(),
    }

    let acks: Vec<AckLog> = (0..LANES)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut lanes = Vec::new();
    for (lane, acked) in acks.iter().enumerate() {
        let (table, clock, acked) = (Arc::clone(&table), clock.clone(), Arc::clone(acked));
        lanes.push(thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            for j in 0..PER_LANE {
                // Lane k writes into shard k's key range.
                let key = BASE + lane as u64 * 1000 + u64::from(j) % KEYS_PER_LANE;
                table.put(&session, key, j);
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
    table.shards().iter().for_each(|e| e.shutdown());

    for (c, point) in crashes.into_iter().enumerate() {
        // Rings large enough that a migration redo cannot overflow them.
        let tracer = Arc::new(Tracer::new(TraceConfig {
            ring_capacity: 1 << 16,
            ..TraceConfig::default()
        }));
        let (recovered, reports, redriven) = Table::recover(&cfg, sharded, &point, &tracer)
            .unwrap_or_else(|e| panic!("crash point {c} failed to recover: {e}"));
        assert_eq!(reports.len(), shards);
        assert!(
            reports.iter().any(|r| r.wal_records_replayed > 0),
            "crash {c}: nothing replayed?"
        );

        // The flight recording carries the recovery on each shard's own
        // track (pid = shard): one `recovery` span per shard, a
        // torn-tail instant exactly where a tail was truncated, and one
        // redo instant per re-driven migration.
        let records = tracer.take_records();
        let on_shards = |name: &str, on: fn(&RecoveryReport) -> bool| {
            let named = records.iter().filter(|r| r.name == name);
            let mut pids: Vec<u32> = named.map(|r| r.track.pid).collect();
            pids.sort_unstable();
            let want: Vec<u32> = (0..shards as u32)
                .filter(|&i| on(&reports[i as usize]))
                .collect();
            assert_eq!(pids, want, "crash {c}: {name}");
        };
        on_shards("recovery", |_| true);
        on_shards("recovery.torn_tail", |r| r.wal_torn_bytes > 0);
        on_shards("recovery.migration_redo", |r| r.redid_migration);
        let redone = reports.iter().filter(|r| r.redid_migration).count();
        assert_eq!(redriven, redone, "crash {c}");

        // Every update acked before the snapshot is in the recovered
        // state (possibly superseded by a newer durable-but-unacked
        // value for the same key — never by an older one).
        let floor = acked_floor(&acks, &point.acked);
        let session = SessionHandle::fresh(point.disk.clock().clone());
        let rows = recovered.rows(&session);
        let got: HashMap<Key, u32> = rows.iter().copied().collect();
        for (key, min_j) in &floor {
            let j = got.get(key); // `None`: lost outright
            assert!(
                j >= Some(min_j),
                "crash {c}: key {key} went backwards: acked {min_j}, recovered {j:?}"
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

        // Crash again immediately: recovering the devices the first
        // recovery left behind reproduces the same state.
        recovered.shards().iter().for_each(|e| e.shutdown());
        drop(recovered);
        let (recovered, _, _) = Table::recover(&cfg, sharded, &point, &tracer)
            .unwrap_or_else(|e| panic!("crash point {c} failed to recover twice: {e}"));
        assert_eq!(recovered.rows(&session), rows, "crash {c}: double recovery");

        // The recovered engine is live: more ingest, a flush, a
        // consistent scan — all with sequential-only SSD I/O on the
        // snapshot devices (heads re-primed by recovery).
        for lane in 0..LANES as u64 {
            for j in 0..50u32 {
                let key = BASE + lane * 1000 + u64::from(j) % KEYS_PER_LANE;
                recovered.put(&session, key, PER_LANE + j);
            }
        }
        for shard in recovered.shards() {
            shard.flush_buffer(&session).unwrap();
        }
        let after = recovered.rows(&session);
        assert!(
            after.windows(2).all(|w| w[0].0 < w[1].0),
            "crash {c}: scan order"
        );
        for (i, shard) in recovered.shards().iter().enumerate() {
            let random = shard.stats().ssd.random_writes;
            assert_eq!(random, 0, "crash {c}: random writes in recovered shard {i}");
        }
        recovered.shards().iter().for_each(|e| e.shutdown());
    }
}

/// One shard per lane, opened and recovered through `ShardedEngine`.
#[test]
fn sharded_crash_under_load_loses_no_acked_update() {
    crash_under_load_loses_no_acked_update(Some(vec![101_000, 102_000]));
}

/// The same lanes on one engine: `MasmEngine::new` / `recover_traced`.
#[test]
fn unsharded_crash_under_load_loses_no_acked_update() {
    crash_under_load_loses_no_acked_update(None);
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
    cfg.sharding.splits = vec![1000];
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
        ShardedEngine::recover(heap, ssds, wals, schema(), cfg, None)
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
    let err = ShardedEngine::recover(heap, vec![ssd], vec![wal], schema(), cfg, None)
        .expect_err("manifest-less WAL must be rejected");
    assert!(err.to_string().contains("manifest"), "{err}");
}

/// The converse: one shard's devices are not a table. Shard 0's log
/// holds neither shard 1's runs nor the heap splices of shard 1's
/// migrations, so opened alone it would serve stale pages and believe
/// it owns the whole keyspace — at the parent `MasmEngine::recover`
/// returned `Ok` here and key 150 read 75.
#[test]
fn a_shards_log_does_not_open_as_a_standalone_table() {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![100];
    let clock = SimClock::new();
    let device = |profile| SimDevice::in_memory(profile, clock.clone());
    let disk = device(DeviceProfile::hdd_barracuda());
    let ssds: Vec<SimDevice> = (0..2).map(|_| device(DeviceProfile::ssd_x25e())).collect();
    let wals: Vec<SimDevice> = (0..2).map(|_| device(DeviceProfile::ssd_x25e())).collect();
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let engine =
        ShardedEngine::new(heap, ssds.clone(), wals.clone(), schema(), cfg.clone()).unwrap();
    let session = SessionHandle::fresh(clock);
    let rows = (0..100u64).map(|i| Record::new(i * 2, payload(i as u32)));
    engine.load_table(&session, rows, 1.0).unwrap();
    engine
        .put(&session, 150, UpdateOp::Replace(payload(2000)))
        .unwrap();
    engine.flush_all(&session).unwrap();
    engine.shards()[1].migrate(&session).unwrap();
    drop(engine);

    let point = crash_snapshot(&disk, &ssds, &wals);
    let heap = Arc::new(TableHeap::new(point.disk.clone(), HeapConfig::default()));
    let (ssd, wal) = (point.ssds[0].clone(), point.wals[0].clone());
    let mut standalone = cfg.clone();
    standalone.sharding.splits.clear();
    let err = MasmEngine::recover(Arc::clone(&heap), ssd, wal, schema(), standalone)
        .expect_err("shard 0 of 2 is not a standalone table");
    assert!(matches!(err, MasmError::Config(_)), "{err:?}");
    assert!(err.to_string().contains("shard 0 of 2"), "{err}");
    assert_eq!(heap.num_pages(), 0, "refused before any heap event");

    let (recovered, _) =
        ShardedEngine::recover(heap, point.ssds, point.wals, schema(), cfg, None).unwrap();
    let session = SessionHandle::fresh(point.disk.clock().clone());
    let got = recovered.get(&session, 150).unwrap().expect("key 150");
    assert_eq!(schema().get_u32(&got.payload, 0), 2000);
}
