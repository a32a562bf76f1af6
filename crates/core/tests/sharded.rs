//! Sharded-engine integration tests: router totality under arbitrary
//! splits, sharded-vs-single-engine oracle equality at arbitrary
//! snapshot cuts, "a standalone engine is the one-shard case" down to
//! the device bytes, two shards migrating into the shared heap at
//! once, a concurrent multi-lane stress against a live shared worker
//! pool, and one flight recorder's per-shard tracks under that pool.
//!
//! The oracle test is the correctness contract of the sharding layer:
//! routing the same update stream through a [`ShardedEngine`] must be
//! observationally identical to a single [`MasmEngine`] — same commit
//! timestamps, same records at every snapshot cut, in the same global
//! key order — while every shard individually preserves design goal 2
//! (`random_writes == 0`).

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use masm_core::config::MasmConfig;
use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::wal::{Wal, WalRecord};
use masm_core::{MasmEngine, ShardRouter, ShardedEngine};
use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};
use masm_telemetry::json::{parse, JsonValue};
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

struct ShardedFixture {
    engine: Arc<ShardedEngine>,
    session: SessionHandle,
    clock: SimClock,
}

fn sharded_fixture(cfg: MasmConfig, n_records: u64) -> ShardedFixture {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let n = cfg.sharding.splits.len() + 1;
    let ssds: Vec<SimDevice> = (0..n)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    let wals: Vec<SimDevice> = (0..n)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    let engine = ShardedEngine::new(heap, ssds, wals, schema(), cfg).unwrap();
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
    ShardedFixture {
        engine,
        session,
        clock,
    }
}

proptest! {
    /// Routing is total and consistent with the advertised ranges for
    /// arbitrary strictly-ascending split points: every key (including
    /// each boundary and its predecessor) lands in the shard whose
    /// inclusive range contains it, and the ranges tile `u64` exactly.
    #[test]
    fn router_is_total_and_range_consistent(
        raw in proptest::collection::vec(1u64..u64::MAX, 0..8),
        probes in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut splits = raw;
        splits.sort_unstable();
        splits.dedup();
        let router = ShardRouter::from_splits(splits.clone()).unwrap();
        prop_assert_eq!(router.shards(), splits.len() + 1);
        // Ranges tile the keyspace: consecutive, gapless, full-cover.
        let mut expected_lo = 0u64;
        for i in 0..router.shards() {
            let (lo, hi) = router.shard_range(i);
            prop_assert_eq!(lo, expected_lo);
            prop_assert!(lo <= hi);
            prop_assert_eq!(router.route(lo), i);
            prop_assert_eq!(router.route(hi), i);
            expected_lo = hi.wrapping_add(1);
        }
        prop_assert_eq!(expected_lo, 0, "last range must end at u64::MAX");
        // Boundary keys open their shard; predecessors close the prior.
        for (i, &s) in router.split_points().iter().enumerate() {
            prop_assert_eq!(router.route(s), i + 1);
            prop_assert_eq!(router.route(s - 1), i);
        }
        for p in probes {
            let shard = router.route(p);
            let (lo, hi) = router.shard_range(shard);
            prop_assert!(lo <= p && p <= hi);
        }
    }

    /// A sampled router is always valid (strictly ascending non-zero
    /// splits, exact shard count) no matter how degenerate the sample.
    #[test]
    fn sampled_router_is_always_valid(
        sample in proptest::collection::vec(any::<u64>(), 0..200),
        shards in 1usize..9,
    ) {
        let router = ShardRouter::from_sample(shards, &sample);
        prop_assert_eq!(router.shards(), shards);
        let s = router.split_points();
        prop_assert!(s.first() != Some(&0));
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        for &k in &sample {
            let (lo, hi) = router.shard_range(router.route(k));
            prop_assert!(lo <= k && k <= hi);
        }
    }
}

/// The same single-threaded update stream applied to a 3-shard engine
/// and to a plain single engine must produce identical commit
/// timestamps and identical scan results at every snapshot cut —
/// record-for-record, in global key order — with zero random SSD writes
/// in every shard.
#[test]
fn sharded_matches_single_engine_oracle() {
    const UPDATES: u32 = 4000;
    const KEYS: u64 = 400;

    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![120, 300];
    let f = sharded_fixture(cfg, 150);

    let single_cfg = MasmConfig::small_for_tests();
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let single = MasmEngine::new(heap, ssd, wal, schema(), single_cfg).unwrap();
    let session = SessionHandle::fresh(clock);
    single
        .load_table(
            &session,
            (0..150).map(|i| Record::new(i * 2, payload(i as u32))),
            1.0,
        )
        .unwrap();

    // Deterministic pseudo-random keys without a rand dependency.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    // Mid-stream consistent cuts: the scans are *opened* (and thereby
    // pinned, in every shard at once) at the cut timestamp, then held
    // unread while ingest continues — the pin is what entitles a scan
    // to its snapshot; duplicate-merging compaction is free to collapse
    // history no query holds open.
    let mut cuts = Vec::new();
    let mut last_ts = 0;
    for j in 0..UPDATES {
        let key: Key = next() % KEYS;
        let op = UpdateOp::Replace(payload(j));
        let ts_sharded = f.engine.put(&f.session, key, op.clone()).unwrap();
        let ts_single = single.apply_update(&session, key, op).unwrap();
        assert_eq!(
            ts_sharded, ts_single,
            "commit timestamps diverged at update {j}"
        );
        last_ts = ts_sharded;
        if j % 1000 == 999 && j + 1 < UPDATES {
            let sharded_scan = f.engine.scan_at(0, u64::MAX, Some(ts_sharded)).unwrap();
            let single_scan = single
                .begin_scan_at(session.clone(), 0, u64::MAX, Some(ts_sharded), Vec::new())
                .unwrap();
            cuts.push((ts_sharded, sharded_scan, single_scan));
        }
    }

    let s = schema();
    for (cut, sharded_scan, single_scan) in cuts {
        let got: Vec<(Key, u32)> = sharded_scan
            .map(|r| (r.key, s.get_u32(&r.payload, 0)))
            .collect();
        let want: Vec<(Key, u32)> = single_scan
            .map(|r| (r.key, s.get_u32(&r.payload, 0)))
            .collect();
        assert_eq!(got, want, "snapshot at ts {cut} diverged");
        // Global key order falls out of shard-order concatenation.
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
    }

    // At the final timestamp nothing is newer than the cut, so a fresh
    // scan needs no advance pin: full range and a boundary-crossing
    // sub-range must agree record-for-record.
    let got: Vec<(Key, u32)> = f
        .engine
        .scan_at(0, u64::MAX, Some(last_ts))
        .unwrap()
        .map(|r| (r.key, s.get_u32(&r.payload, 0)))
        .collect();
    let want: Vec<(Key, u32)> = single
        .begin_scan_at(session.clone(), 0, u64::MAX, Some(last_ts), Vec::new())
        .unwrap()
        .map(|r| (r.key, s.get_u32(&r.payload, 0)))
        .collect();
    assert_eq!(got, want, "final snapshot diverged");
    let got: Vec<Key> = f
        .engine
        .scan_at(100, 320, Some(last_ts))
        .unwrap()
        .map(|r| r.key)
        .collect();
    let want: Vec<Key> = single
        .begin_scan_at(session.clone(), 100, 320, Some(last_ts), Vec::new())
        .unwrap()
        .map(|r| r.key)
        .collect();
    assert_eq!(got, want, "boundary-crossing sub-range diverged");

    let stats = f.engine.stats();
    for (i, shard) in stats.per_shard.iter().enumerate() {
        assert_eq!(
            shard.ssd.random_writes, 0,
            "design goal 2 violated in shard {i}"
        );
    }
    assert_eq!(stats.total.ssd.random_writes, 0);
    assert_eq!(stats.total.ingested_updates, UPDATES as u64);
    assert!(stats.shard_imbalance >= 1.0, "max/mean must be >= 1");
    // Every shard saw traffic: the stream covers all three key ranges.
    assert!(stats.per_shard.iter().all(|s| s.ingested_updates > 0));
}

/// A standalone engine *is* the one-shard case of the same code: the
/// same seeded script — load, mixed updates through several flushes, a
/// compaction, a migration, a crash and a recovery — through
/// `MasmEngine` and through a `ShardedEngine` with no split keys yields
/// the same rows at every scan, the same run set, and the same bytes on
/// flash and in the redo log (which differ by the one manifest frame a
/// deployment starts its log with).
#[test]
fn standalone_is_the_one_shard_case() {
    /// One side of the comparison: its devices and a way to reopen them.
    struct Side {
        clock: SimClock,
        disk: SimDevice,
        ssd: SimDevice,
        wal: SimDevice,
    }
    impl Side {
        fn new() -> Side {
            let clock = SimClock::new();
            let device = |profile| SimDevice::in_memory(profile, clock.clone());
            Side {
                disk: device(DeviceProfile::hdd_barracuda()),
                ssd: device(DeviceProfile::ssd_x25e()),
                wal: device(DeviceProfile::ssd_x25e()),
                clock,
            }
        }
        fn heap(&self) -> Arc<TableHeap> {
            Arc::new(TableHeap::new(self.disk.clone(), HeapConfig::default()))
        }
        fn session(&self) -> SessionHandle {
            SessionHandle::fresh(self.clock.clone())
        }
        /// The devices as a crash leaves them (WAL, then SSD, then disk).
        fn crash(&self) -> Side {
            let clock = self.clock.clone();
            Side {
                wal: self.wal.snapshot(clock.clone()).unwrap(),
                ssd: self.ssd.snapshot(clock.clone()).unwrap(),
                disk: self.disk.snapshot(clock.clone()).unwrap(),
                clock,
            }
        }
        fn bytes(&self, dev: &SimDevice) -> Vec<u8> {
            self.session().read(dev, 0, dev.len()).unwrap()
        }
    }
    let cfg = MasmConfig::small_for_tests();
    let (a, b) = (Side::new(), Side::new());
    let mut one = MasmEngine::new(
        a.heap(),
        a.ssd.clone(),
        a.wal.clone(),
        schema(),
        cfg.clone(),
    )
    .unwrap();
    let (ssds, wals) = (vec![b.ssd.clone()], vec![b.wal.clone()]);
    let mut many = ShardedEngine::new(b.heap(), ssds, wals, schema(), cfg.clone()).unwrap();
    let (sa, sb) = (a.session(), b.session());

    let rows = || (0..150u64).map(|i| Record::new(i * 2, payload(i as u32)));
    one.load_table(&sa, rows(), 1.0).unwrap();
    many.load_table(&sb, rows(), 1.0).unwrap();

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Flushed before it is scanned: a scan that meets a full buffer
    // flushes it, and the sharded scan's reservation — it has no
    // timestamp yet — keeps that flush from folding duplicates; the
    // standalone scan has no such window.
    let same_table = |one: &Arc<MasmEngine>, many: &Arc<ShardedEngine>, at: &str| {
        let shard = &many.shards()[0];
        assert_eq!(shard.buffered_updates(), one.buffered_updates(), "{at}");
        one.flush_buffer(&sa).unwrap();
        many.flush_all(&sb).unwrap();
        let got: Vec<Record> = many.scan(0, Key::MAX).unwrap().collect();
        let want: Vec<Record> = one.begin_scan(sa.clone(), 0, Key::MAX).unwrap().collect();
        assert_eq!(got, want, "rows differ {at}");
        assert_eq!(shard.run_count(), one.run_count(), "runs {at}");
        let (cached, want) = (shard.cached_bytes(), one.cached_bytes());
        assert_eq!(cached, want, "cached bytes {at}");
    };
    for j in 0..6000u32 {
        let key: Key = next() % 400;
        let op = match next() % 4 {
            0 => UpdateOp::Insert(payload(j)),
            1 => UpdateOp::Delete,
            2 => UpdateOp::Modify(vec![FieldPatch {
                field: 0,
                value: j.to_le_bytes().to_vec(),
            }]),
            _ => UpdateOp::Replace(payload(j)),
        };
        let ts = one.apply_update(&sa, key, op.clone()).unwrap();
        assert_eq!(many.put(&sb, key, op).unwrap(), ts, "update {j}");
        match j {
            999 | 1999 | 2999 => same_table(&one, &many, "at a flush"),
            3999 => {
                let report = one.compact_runs(&sa).unwrap();
                assert!(report.inputs >= 3, "several flushes: {report:?}");
                assert_eq!(many.shards()[0].compact_runs(&sb).unwrap(), report);
                same_table(&one, &many, "after the compaction");
            }
            4999 => {
                let report = one.migrate(&sa).unwrap();
                assert!(report.updates_applied > 0);
                assert_eq!(many.shards()[0].migrate(&sb).unwrap(), report);
                same_table(&one, &many, "after the migration");
            }
            5499 => {
                // Pull the plug with runs and a part-filled buffer, and
                // carry on with what recovery brings back.
                let (ca, cb) = (a.crash(), b.crash());
                let (ssd, wal) = (ca.ssd.clone(), ca.wal.clone());
                one = MasmEngine::recover(ca.heap(), ssd, wal, schema(), cfg.clone())
                    .unwrap()
                    .0;
                let (ssds, wals) = (vec![cb.ssd.clone()], vec![cb.wal.clone()]);
                many = ShardedEngine::recover(cb.heap(), ssds, wals, schema(), cfg.clone(), None)
                    .unwrap()
                    .0;
                same_table(&one, &many, "after recovery");
                assert_eq!(ca.bytes(&ca.ssd), cb.bytes(&cb.ssd), "flash after recovery");
            }
            _ => {}
        }
    }
    same_table(&one, &many, "at the end");

    // The pre-crash devices: the same bytes on flash, and in the log
    // behind the deployment's manifest frame.
    assert_eq!(a.bytes(&a.ssd), b.bytes(&b.ssd), "flash images");
    let (log_a, log_b) = (a.bytes(&a.wal), b.bytes(&b.wal));
    let manifest_frame = log_b.len() - log_a.len();
    assert!(log_b[manifest_frame..] == log_a[..], "redo logs");
    let first = Wal::replay(&sb, &b.wal).unwrap().records.swap_remove(0);
    assert!(matches!(first, WalRecord::Manifest(m) if m.shards == 1 && m.split_keys.is_empty()));
    assert_eq!(a.ssd.stats().random_writes, 0);
    assert_eq!(b.ssd.stats().random_writes, 0);
}

/// Two shards' migrations called at the same moment from two threads:
/// both rewrite the one shared heap, whose rewrite lock makes the
/// second wait for the first, and the table equals the model after.
#[test]
fn two_shards_migrate_at_once() {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![20_001];
    let n = 20_000u64;
    let f = sharded_fixture(cfg, n);
    let mut model: HashMap<Key, u32> = (0..n).map(|i| (i * 2, i as u32)).collect();
    for key in (1..2 * n).step_by(7) {
        // Odd keys are gap inserts (the pages grow), even ones replace.
        f.engine
            .put(&f.session, key, UpdateOp::Replace(payload(7)))
            .unwrap();
        model.insert(key, 7);
    }
    f.engine.flush_all(&f.session).unwrap();

    let start = Arc::new(std::sync::Barrier::new(2));
    let migrations: Vec<_> = f
        .engine
        .shards()
        .iter()
        .map(|shard| {
            let (shard, start, clock) = (Arc::clone(shard), Arc::clone(&start), f.clock.clone());
            thread::spawn(move || {
                let session = SessionHandle::fresh(clock);
                start.wait();
                let report = shard.migrate(&session).unwrap();
                assert!(report.updates_applied > 0);
            })
        })
        .collect();
    for migration in migrations {
        migration.join().unwrap();
    }

    assert!(f.engine.shards().iter().all(|e| e.run_count() == 0));
    let s = schema();
    let got: Vec<(Key, u32)> = f
        .engine
        .scan(0, Key::MAX)
        .unwrap()
        .map(|r| (r.key, s.get_u32(&r.payload, 0)))
        .collect();
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
    assert_eq!(got.len(), model.len());
    assert!(got.iter().all(|(k, v)| model.get(k) == Some(v)));
}

/// A sharded `put` goes through the same door as `apply_update`: an
/// update the encoding cannot represent is refused, not acknowledged.
#[test]
fn put_refuses_an_update_the_encoding_cannot_represent() {
    use masm_core::wal::Wal;
    use masm_core::MasmError;

    // Built by hand (not `sharded_fixture`) to keep the log devices.
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![100];
    let clock = SimClock::new();
    let device = |profile| SimDevice::in_memory(profile, clock.clone());
    let heap = Arc::new(TableHeap::new(
        device(DeviceProfile::hdd_barracuda()),
        HeapConfig::default(),
    ));
    let ssds = vec![
        device(DeviceProfile::ssd_x25e()),
        device(DeviceProfile::ssd_x25e()),
    ];
    let wals = vec![
        device(DeviceProfile::ssd_x25e()),
        device(DeviceProfile::ssd_x25e()),
    ];
    let engine = ShardedEngine::new(heap, ssds, wals.clone(), schema(), cfg).unwrap();
    let session = SessionHandle::fresh(clock.clone());
    let records = (0..100u64).map(|i| Record::new(i * 2, payload(i as u32)));
    engine.load_table(&session, records, 1.0).unwrap();

    // Key 151 routes to shard 1. At the parent the put was acked, the
    // shard's log no longer replayed, and the scan below panicked.
    let log_end = wals[1].len();
    let err = engine
        .put(&session, 151, UpdateOp::Insert(vec![7; 70_000]))
        .unwrap_err();
    assert!(
        matches!(err, MasmError::InvalidUpdate { key: 151, .. }),
        "{err}"
    );
    assert_eq!(wals[1].len(), log_end, "nothing was logged");

    engine
        .put(&session, 151, UpdateOp::Insert(payload(9)))
        .unwrap();
    for wal in &wals {
        assert!(!Wal::replay(&session, wal).unwrap().torn());
    }
    engine.flush_all(&session).unwrap();
    let got: Vec<Key> = engine.scan(150, 152).unwrap().map(|r| r.key).collect();
    assert_eq!(got, vec![150, 151, 152]);
}

/// Four ingest lanes hammer a 4-shard engine with a live shared worker
/// pool while a scanner takes cross-shard snapshot scans; per-key
/// values must never go backwards within a scan sequence, the final
/// state must equal the serial model, every shard must finish with
/// `random_writes == 0`, and shutdown must drain the shared queue.
#[test]
fn stress_concurrent_sharded_ingest_scan() {
    const LANES: u64 = 4;
    const PER_LANE: u32 = 2000;
    const KEYS_PER_LANE: u32 = 50;
    const SCANS: usize = 15;
    const BASE: u64 = 100_000;

    let mut cfg = MasmConfig::small_for_tests();
    cfg.background_workers = 2;
    cfg.sharding.splits = vec![101_000, 102_000, 103_000];
    let f = sharded_fixture(cfg, 100);
    let s = schema();

    let mut ingesters = Vec::new();
    for lane in 0..LANES {
        let engine = Arc::clone(&f.engine);
        let clock = f.clock.clone();
        ingesters.push(thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            for j in 0..PER_LANE {
                // Lane k writes into shard k's range: 4 lanes drive 4
                // shards concurrently through the one shared pool.
                let key = BASE + lane * 1000 + (j % KEYS_PER_LANE) as u64;
                engine
                    .put(&session, key, UpdateOp::Replace(payload(j)))
                    .unwrap();
            }
        }));
    }

    let scanner = {
        let engine = Arc::clone(&f.engine);
        thread::spawn(move || {
            let s = schema();
            let mut last: HashMap<u64, u32> = HashMap::new();
            for _ in 0..SCANS {
                for r in engine.scan(BASE, u64::MAX).unwrap() {
                    let v = s.get_u32(&r.payload, 0);
                    let prev = last.insert(r.key, v).unwrap_or(0);
                    assert!(
                        v >= prev,
                        "key {} went backwards: {} -> {} (non-snapshot read)",
                        r.key,
                        prev,
                        v
                    );
                }
            }
        })
    };

    for t in ingesters {
        t.join().unwrap();
    }
    scanner.join().unwrap();
    f.engine.shutdown();

    let mut model: HashMap<u64, u32> = HashMap::new();
    for lane in 0..LANES {
        for j in 0..PER_LANE {
            model.insert(BASE + lane * 1000 + (j % KEYS_PER_LANE) as u64, j);
        }
    }
    let got: HashMap<u64, u32> = f
        .engine
        .scan(BASE, u64::MAX)
        .unwrap()
        .map(|r| (r.key, s.get_u32(&r.payload, 0)))
        .collect();
    assert_eq!(got, model, "final state diverged from the serial oracle");

    let stats = f.engine.stats();
    for (i, shard) in stats.per_shard.iter().enumerate() {
        assert_eq!(
            shard.ssd.random_writes, 0,
            "design goal 2 violated in shard {i}"
        );
        // The per-shard NDJSON row carries its shard id and invariant.
        let row = stats.shard_row(i);
        assert!(row.contains(&format!("\"shard_id\":{i}")), "{row}");
        assert!(row.contains("\"random_writes\":0"), "{row}");
    }
    assert!(
        stats.total.workers.jobs_completed > 0,
        "no background job ran"
    );
    assert!(stats.total.workers.flushes > 0, "no background flush ran");
    assert_eq!(
        stats.total.workers.queue_depth, 0,
        "shared queue not drained at join"
    );
    // Lanes are symmetric: imbalance stays near 1.
    assert!(
        stats.shard_imbalance < 1.5,
        "unexpected imbalance {}",
        stats.shard_imbalance
    );
}

/// A flight recorder installed through [`ShardedEngine::install_tracer`]
/// gives every shard its own process track (`pid` = shard id), and the
/// shared pool's flushes land on the track of the shard they flush:
/// each carries a complete `job.flush` span and a `masm.flush` flow
/// from the put that sealed the batch to that job.
#[test]
fn every_shard_flushes_on_its_own_trace_track() {
    const SHARDS: u64 = 3;
    let mut cfg = MasmConfig::small_for_tests();
    cfg.background_workers = 2;
    cfg.sharding.splits = (1..SHARDS).map(|k| k * 10_000).collect();
    let f = sharded_fixture(cfg, 0);
    let tracer = Arc::new(Tracer::new(TraceConfig {
        ring_capacity: 1 << 15,
        ..TraceConfig::default()
    }));
    f.engine.install_tracer(&tracer);
    for j in 0..1500u32 {
        for shard in 0..SHARDS {
            let op = UpdateOp::Replace(payload(j));
            f.engine
                .put(&f.session, shard * 10_000 + u64::from(j), op)
                .unwrap();
        }
    }
    f.engine.shutdown();

    let doc = parse(&tracer.export_chrome_trace()).expect("the trace is JSON");
    let Some(JsonValue::Arr(events)) = doc.get("traceEvents") else {
        panic!("the trace carries a traceEvents array");
    };
    let is = |e: &JsonValue, key: &str, want: &str| matches!(e.get(key), Some(JsonValue::Str(got)) if got == want);
    for shard in 0..SHARDS {
        let track: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get_u64("pid") == Some(shard))
            .collect();
        let spans = track
            .iter()
            .filter(|e| is(e, "ph", "X") && is(e, "name", "job.flush"));
        assert!(
            spans.count() > 0,
            "shard {shard}: no complete job.flush span"
        );
        let flow_ids = |phase| -> Vec<u64> {
            let flows = track
                .iter()
                .filter(|e| is(e, "ph", phase) && is(e, "name", "masm.flush"));
            flows.filter_map(|e| e.get_u64("id")).collect()
        };
        let (starts, finishes) = (flow_ids("s"), flow_ids("f"));
        assert!(
            starts.iter().any(|id| finishes.contains(id)),
            "shard {shard}: no masm.flush flow resolves ({starts:?} / {finishes:?})"
        );
    }
}
