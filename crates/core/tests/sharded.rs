//! Sharded-engine integration tests: router totality under arbitrary
//! splits, sharded-vs-single-engine equality at arbitrary snapshot
//! cuts, "a standalone engine is the one-shard case" down to the device
//! bytes, two shards migrating into the shared heap at once, a
//! concurrent multi-lane stress against a live shared worker pool, and
//! one flight recorder's per-shard tracks under that pool.
//!
//! The single-engine test is the correctness contract of the sharding
//! layer: routing the same update stream through a [`ShardedEngine`]
//! must be observationally identical to a single [`MasmEngine`] — same
//! commit timestamps, same records at every snapshot cut, in the same
//! global key order — while every shard individually preserves design
//! goal 2 (`random_writes == 0`).
//!
//! [`ShardedEngine`]: masm_core::ShardedEngine
//! [`MasmEngine`]: masm_core::MasmEngine

use std::sync::{Arc, Barrier};
use std::thread;

use proptest::prelude::*;

use masm_core::config::MasmConfig;
use masm_core::update::UpdateOp;
use masm_core::wal::{Wal, WalRecord};
use masm_core::{MasmError, ShardRouter};
use masm_model::{assert_rows, payload, puts, Op, Outcome, Table};
use masm_pagestore::{Key, Record};
use masm_storage::SimDevice;
use masm_telemetry::json::{parse, JsonValue};
use masm_telemetry::{TraceConfig, Tracer};

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

/// The same update stream applied to a 3-shard table and to a
/// standalone one must produce identical commit timestamps and
/// identical scan results at every snapshot cut — record-for-record,
/// in global key order, and the model's — with zero random SSD writes
/// in every shard.
#[test]
fn sharded_matches_single_engine_oracle() {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![120, 300];
    let (mut sharded, mut single) = (
        Table::sharded(cfg),
        Table::new(MasmConfig::small_for_tests()),
    );
    let (mut model, mut single_model) = (sharded.load(150), single.load(150));

    // Mid-stream consistent cuts: the scans are *opened* (and thereby
    // pinned, in every shard at once) at the cut timestamp, then held
    // unread while ingest continues — the pin is what entitles a scan
    // to its snapshot; duplicate-merging compaction is free to collapse
    // history no query holds open.
    let mut cuts = Vec::new();
    let mut updates = puts("single engine", 400);
    for j in 1..=4000 {
        let op = updates.next().unwrap();
        let ts = sharded.step(&mut model, &op);
        let single_ts = single.step(&mut single_model, &op);
        assert_eq!(ts, single_ts, "commit timestamps diverged at update {j}");
        if let (Outcome::Put(ts), true) = (ts, j % 1000 == 0) {
            let at = |t: &Table| t.scan_at(&t.session, 0, u64::MAX, Some(ts)).unwrap();
            cuts.push((ts, at(&sharded), at(&single)));
        }
    }
    // The last cut is at the final timestamp: nothing is newer, so it
    // needs no advance pin; a boundary-crossing sub-range as well.
    let last = cuts.last().expect("cuts").0;
    let (sub, whole) = ((100, 320), (0, u64::MAX));
    for (cut, sharded_scan, single_scan) in cuts {
        let got: Vec<Record> = sharded_scan.collect();
        assert_rows(
            &got,
            &single_scan.collect::<Vec<_>>(),
            format!("snapshot at ts {cut}"),
        );
        assert_rows(
            &got,
            &model.scan(0, u64::MAX, cut),
            format!("model at ts {cut}"),
        );
    }
    for (begin, end) in [whole, sub] {
        let at = |t: &Table| t.scan_at(&t.session, begin, end, Some(last)).unwrap();
        let got: Vec<Record> = at(&sharded).collect();
        assert_rows(
            &got,
            &at(&single).collect::<Vec<_>>(),
            format!("[{begin}, {end}] at {last}"),
        );
    }

    let stats = sharded.sharded_engine().stats();
    for (i, shard) in stats.per_shard.iter().enumerate() {
        assert_eq!(
            shard.ssd.random_writes, 0,
            "design goal 2 violated in shard {i}"
        );
    }
    assert_eq!(stats.total.ssd.random_writes, 0);
    assert_eq!(stats.total.ingested_updates, 4000);
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
    let mut cfg = MasmConfig::small_for_tests();
    // `migrate_all` then takes the one shard whenever it holds anything.
    cfg.migration_threshold = 0.0;
    let (mut one, mut many) = (Table::new(cfg.clone()), Table::sharded(cfg));
    let (mut one_model, mut many_model) = (one.load(150), many.load(150));
    let bytes = |dev: &SimDevice| dev.read_at(0, 0, dev.len()).unwrap().0;
    // Flushed before it is scanned: a scan that meets a full buffer
    // flushes it, and the sharded scan's reservation — it has no
    // timestamp yet — keeps that flush from folding duplicates; the
    // standalone scan has no such window.
    let same_table = |one: &Table, many: &Table, at: &str| {
        let (a, b) = (one.engine(), &many.shards()[0]);
        assert_eq!(b.stats().buffer.updates, a.stats().buffer.updates, "{at}");
        one.flush().unwrap();
        many.flush().unwrap();
        assert_rows(
            &many.rows(0, Key::MAX),
            &one.rows(0, Key::MAX),
            format!("rows {at}"),
        );
        assert_eq!(b.run_count(), a.run_count(), "runs {at}");
        assert_eq!(b.cached_bytes(), a.cached_bytes(), "cached bytes {at}");
    };
    let mut updates = puts("one shard", 400);
    let mut before_crash = None;
    for j in 1..=6000 {
        let op = updates.next().unwrap();
        let ts = one.step(&mut one_model, &op);
        assert_eq!(many.step(&mut many_model, &op), ts, "update {j}");
        let (op, at) = match j {
            1000 | 2000 | 3000 => (None, "at a flush"),
            4000 => (Some(Op::Compact), "after the compaction"),
            5000 => (Some(Op::Migrate), "after the migration"),
            5500 => (Some(Op::Crash), "after recovery"),
            _ => continue,
        };
        if op == Some(Op::Crash) {
            before_crash = Some((one.dev.clone(), many.dev.clone()));
        }
        if let Some(op) = op {
            let done = one.step(&mut one_model, &op);
            let also = many.step(&mut many_model, &op);
            match (done, also) {
                (Outcome::Compact(a), Outcome::Compact(b)) => {
                    assert!(a[0].inputs >= 3, "several flushes: {a:?}");
                    assert_eq!(a, b);
                }
                (Outcome::Migrate(a), Outcome::Migrate(b)) => {
                    assert!(a[0].updates_applied > 0);
                    assert_eq!(a, b);
                }
                (Outcome::Crash(_), Outcome::Crash(_)) => {
                    same_table(&one, &many, at);
                    let flash = (bytes(&one.dev.ssds[0]), bytes(&many.dev.ssds[0]));
                    assert!(flash.0 == flash.1, "flash after recovery");
                }
                other => panic!("{other:?}"),
            }
        }
        same_table(&one, &many, at);
    }
    same_table(&one, &many, "at the end");

    // The pre-crash devices: the same bytes on flash, and in the log
    // behind the deployment's manifest frame.
    let (a, b) = before_crash.expect("a crash");
    assert!(bytes(&a.ssds[0]) == bytes(&b.ssds[0]), "flash images");
    let (log_a, log_b) = (bytes(&a.wals[0]), bytes(&b.wals[0]));
    let manifest_frame = log_b.len() - log_a.len();
    assert!(log_b[manifest_frame..] == log_a[..], "redo logs");
    let first = Wal::replay(&b.session(), &b.wals[0])
        .unwrap()
        .records
        .swap_remove(0);
    assert!(matches!(first, WalRecord::Manifest(m) if m.shards == 1 && m.split_keys.is_empty()));
    assert_eq!(a.ssds[0].stats().random_writes, 0);
    assert_eq!(b.ssds[0].stats().random_writes, 0);
}

/// Two shards' migrations called at the same moment from two threads:
/// both rewrite the one shared heap, whose rewrite lock makes the
/// second wait for the first, and the table equals the model after.
#[test]
fn two_shards_migrate_at_once() {
    let n = 20_000u64;
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![n + 1];
    let mut t = Table::sharded(cfg);
    let mut model = t.load(n);
    for key in (1..2 * n).step_by(7) {
        // Odd keys are gap inserts (the pages grow), even ones replace.
        t.step(&mut model, &Op::Put(key, UpdateOp::Replace(payload(7))));
    }
    t.flush().unwrap();

    let start = Barrier::new(2);
    thread::scope(|scope| {
        for shard in t.shards() {
            let (t, start) = (&t, &start);
            scope.spawn(move || {
                let session = t.dev.session();
                start.wait();
                let report = shard.migrate(&session).unwrap();
                assert!(report.updates_applied > 0);
            });
        }
    });
    assert!(t.shards().iter().all(|e| e.run_count() == 0));
    t.check(&model);
}

/// A sharded `put` goes through the same door as `apply_update`: an
/// update the encoding cannot represent is refused, not acknowledged.
#[test]
fn put_refuses_an_update_the_encoding_cannot_represent() {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![100];
    let t = Table::sharded(cfg);
    t.load(100);

    // Key 151 routes to shard 1. Once, the put was acked, the shard's
    // log no longer replayed, and the scan below panicked.
    let log_end = t.dev.wals[1].len();
    let err = t.put(151, UpdateOp::Insert(vec![7; 70_000])).unwrap_err();
    assert!(
        matches!(err, MasmError::InvalidUpdate { key: 151, .. }),
        "{err}"
    );
    assert_eq!(t.dev.wals[1].len(), log_end, "nothing was logged");

    t.put(151, UpdateOp::Insert(payload(9))).unwrap();
    for wal in &t.dev.wals {
        assert!(!Wal::replay(&t.session, wal).unwrap().torn());
    }
    t.flush().unwrap();
    let got: Vec<Key> = t.rows(150, 152).iter().map(|r| r.key).collect();
    assert_eq!(got, vec![150, 151, 152]);
}

/// Four ingest lanes hammer a 4-shard table with a live shared worker
/// pool while a scanner takes cross-shard snapshot scans; every scan
/// must be the model as of its timestamp, the final state the model,
/// every shard must finish with `random_writes == 0`, and shutdown must
/// drain the shared queue.
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
    let t = Table::sharded(cfg);
    let mut model = t.load(100);

    let (puts, scans) = thread::scope(|scope| {
        let ingesters: Vec<_> = (0..LANES)
            .map(|lane| {
                let t = &t;
                scope.spawn(move || {
                    let session = t.dev.session();
                    // Lane k writes into shard k's range: 4 lanes drive 4
                    // shards concurrently through the one shared pool.
                    let puts = (0..PER_LANE).map(|j| {
                        let key = BASE + lane * 1000 + (j % KEYS_PER_LANE) as u64;
                        let op = UpdateOp::Replace(payload(j));
                        (t.put_on(&session, key, op.clone()).unwrap(), key, op)
                    });
                    puts.collect::<Vec<_>>()
                })
            })
            .collect();
        let scanner = scope.spawn(|| {
            let scans = (0..SCANS).map(|_| {
                let scan = t.scan(BASE, u64::MAX).unwrap();
                (scan.timestamp(), scan.collect::<Vec<_>>())
            });
            scans.collect::<Vec<_>>()
        });
        let puts: Vec<_> = ingesters
            .into_iter()
            .flat_map(|l| l.join().unwrap())
            .collect();
        (puts, scanner.join().unwrap())
    });
    t.shutdown();
    for (ts, key, op) in puts {
        model.apply(ts, key, op);
    }
    for (ts, rows) in &scans {
        let want = model.scan(BASE, u64::MAX, *ts);
        assert_rows(
            rows,
            &want,
            format_args!("a scan at {ts} (non-snapshot read)"),
        );
    }
    t.check(&model);

    let stats = t.sharded_engine().stats();
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

/// A flight recorder installed through `ShardedEngine::install_tracer`
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
    let t = Table::sharded(cfg);
    let tracer = Arc::new(Tracer::new(TraceConfig {
        ring_capacity: 1 << 15,
        ..TraceConfig::default()
    }));
    t.sharded_engine().install_tracer(&tracer);
    for j in 0..1500u32 {
        for shard in 0..SHARDS {
            let op = UpdateOp::Replace(payload(j));
            t.put(shard * 10_000 + u64::from(j), op).unwrap();
        }
    }
    t.shutdown();

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
