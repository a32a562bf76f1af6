//! Sharded-engine integration tests: router totality under arbitrary
//! splits, sharded-vs-single-engine oracle equality at arbitrary
//! snapshot cuts, and a concurrent multi-lane stress against a live
//! shared worker pool.
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
use masm_core::update::UpdateOp;
use masm_core::{MasmEngine, ShardRouter, ShardedEngine, ShardingConfig, SplitPolicy};
use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

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
    let n = cfg.sharding.shards;
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
    cfg.sharding = ShardingConfig {
        shards: 3,
        split_policy: SplitPolicy::Explicit(vec![120, 300]),
        max_concurrent_migrations: 1,
    };
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

/// A sharded `put` goes through the same door as `apply_update`: an
/// update the encoding cannot represent is refused, not acknowledged.
#[test]
fn put_refuses_an_update_the_encoding_cannot_represent() {
    use masm_core::wal::Wal;
    use masm_core::MasmError;

    // Built by hand (not `sharded_fixture`) to keep the log devices.
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding = ShardingConfig {
        shards: 2,
        split_policy: SplitPolicy::Explicit(vec![100]),
        max_concurrent_migrations: 1,
    };
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
    cfg.sharding = ShardingConfig {
        shards: 4,
        split_policy: SplitPolicy::Explicit(vec![101_000, 102_000, 103_000]),
        max_concurrent_migrations: 1,
    };
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
