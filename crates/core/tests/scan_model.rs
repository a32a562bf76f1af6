//! Differential test of the read path: whatever mix of heap pages,
//! runs, sealed batches, live buffer and private overlay holds the
//! data, `begin_scan_at` and `get` must return what a `BTreeMap` of
//! timestamped updates says they should — also when the consumer walks
//! away mid-scan, and also when the keyspace is split over the shards
//! of a `ShardedEngine` that migrate one at a time into a shared heap.
//! Plus the read-fault contract: a scan cut short by the disk — or by
//! the flash device under its run scans — says so, returns a prefix of
//! the right answer, and never panics.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use masm_core::config::MasmConfig;
use masm_core::update::{FieldPatch, UpdateOp, UpdateRecord};
use masm_core::{MasmEngine, MasmError, ShardedEngine};
use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice, StorageError};

fn schema() -> Schema {
    Schema::synthetic_100b()
}

fn payload(v: u32) -> Vec<u8> {
    let s = schema();
    let mut p = s.empty_payload();
    s.set_u32(&mut p, 0, v);
    p
}

struct Fixture {
    engine: Arc<MasmEngine>,
    session: SessionHandle,
    disk: SimDevice,
}

fn fixture(cfg: MasmConfig, n_records: u64) -> Fixture {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal_dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let engine = MasmEngine::new(heap, ssd, wal_dev, schema(), cfg).unwrap();
    let session = SessionHandle::fresh(clock);
    engine
        .load_table(
            &session,
            (0..n_records).map(|i| Record::new(i * 2, payload(i as u32))),
            1.0,
        )
        .unwrap();
    Fixture {
        engine,
        session,
        disk,
    }
}

fn op_strategy() -> impl Strategy<Value = UpdateOp> {
    let patch = |v: u32| FieldPatch {
        field: 0,
        value: v.to_le_bytes().to_vec(),
    };
    prop_oneof![
        3 => any::<u32>().prop_map(|v| UpdateOp::Insert(payload(v))),
        3 => Just(UpdateOp::Delete),
        3 => any::<u32>().prop_map(move |v| UpdateOp::Modify(vec![patch(v)])),
        1 => any::<u32>().prop_map(|v| UpdateOp::Replace(payload(v))),
    ]
}

/// One step that moves updates from one home to the next.
#[derive(Debug, Clone)]
enum Step {
    Update(Key, UpdateOp),
    Flush,
    Compact,
    Migrate,
    /// Partial migration of `[begin, begin + width]`.
    MigrateRange(Key, Key),
}

fn step_strategy(keys: u64) -> impl Strategy<Value = Step> {
    prop_oneof![
        40 => (0..keys, op_strategy()).prop_map(|(k, op)| Step::Update(k, op)),
        3 => Just(Step::Flush),
        1 => Just(Step::Compact),
        1 => Just(Step::Migrate),
        2 => (0..keys, 0..keys).prop_map(|(begin, width)| Step::MigrateRange(begin, width)),
    ]
}

/// What a scan of `[begin, end]` as of `as_of` must return: per key,
/// the base record with every visible update applied in timestamp
/// order, then the private overlay in its own order.
fn expected(
    base: u64,
    history: &BTreeMap<Key, Vec<UpdateRecord>>,
    private: &[(Key, UpdateOp)],
    (begin, end): (Key, Key),
    as_of: u64,
) -> Vec<Record> {
    let s = schema();
    let mut keys: Vec<Key> = (0..base).map(|i| i * 2).collect();
    keys.extend(history.keys());
    keys.extend(private.iter().map(|(k, _)| *k));
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .filter(|k| (begin..=end).contains(k))
        .filter_map(|key| {
            let mut cur = (key % 2 == 0 && key / 2 < base)
                .then(|| Record::new(key, payload((key / 2) as u32)));
            let visible = history
                .get(&key)
                .into_iter()
                .flatten()
                .filter(|u| u.ts <= as_of)
                .map(|u| u.op.clone());
            let own = private
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, op)| op.clone());
            for op in visible.chain(own) {
                cur = UpdateRecord::new(0, key, op).apply_to(cur, &s);
            }
            cur
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn merged_scan_equals_the_model(
        (base, background, fold) in (0u64..400, any::<bool>(), any::<bool>()),
        steps in proptest::collection::vec(step_strategy(900), 0..1500),
        private in proptest::collection::vec((0u64..900, op_strategy()), 0..6),
        (begin, width, past, take) in (0u64..900, 0u64..900, any::<bool>(), 0usize..1200),
        probes in proptest::collection::vec(0u64..900, 0..8),
    ) {
        let mut cfg = MasmConfig::small_for_tests();
        // One worker: sealed batches wait for it, so scans meet them.
        cfg.background_workers = background as usize;
        // Unfolded runs keep every version: scans in the past are exact.
        cfg.merge_duplicates = fold;
        let f = fixture(cfg, base);

        let mut history: BTreeMap<Key, Vec<UpdateRecord>> = BTreeMap::new();
        // Timestamps a scan may go back to: everything since versions
        // were last folded (a compaction always folds) or absorbed by
        // the heap.
        let mut exact_since: Vec<u64> = Vec::new();
        for step in steps {
            match step {
                Step::Update(key, op) => {
                    let ts = f.engine.apply_update(&f.session, key, op.clone()).unwrap();
                    history.entry(key).or_default().push(UpdateRecord::new(ts, key, op));
                    exact_since.push(ts);
                }
                Step::Flush => f.engine.flush_buffer(&f.session).unwrap(),
                Step::Compact => {
                    f.engine.compact_runs(&f.session).unwrap();
                    exact_since.clear();
                }
                Step::Migrate => {
                    f.engine.migrate(&f.session).unwrap();
                    exact_since.clear();
                }
                Step::MigrateRange(begin, width) => {
                    f.engine.migrate_range(&f.session, begin, begin + width).unwrap();
                    exact_since.clear();
                }
            }
        }

        let range = (begin, begin + width);
        let as_of = (past && !fold)
            .then(|| exact_since.get(take % exact_since.len().max(1)).copied())
            .flatten();
        let overlay: Vec<UpdateRecord> = {
            let ts = as_of.unwrap_or_else(|| f.engine.oracle().next());
            private.iter().map(|(k, op)| UpdateRecord::new(ts, *k, op.clone())).collect()
        };
        let want = expected(base, &history, &private, range, as_of.unwrap_or(u64::MAX));

        let before = f.engine.stats().ops.scan_next.count;
        let mut scan = f
            .engine
            .begin_scan_at(f.session.clone(), range.0, range.1, as_of, overlay)
            .unwrap();
        let got: Vec<Record> = scan.by_ref().take(take).collect();
        prop_assert!(scan.error().is_none());
        drop(scan);
        let want = &want[..take.min(want.len())];
        let brief = |r: Option<&Record>| r.map(|r| (r.key, schema().get_u32(&r.payload, 0)));
        let differ = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i));
        prop_assert!(
            differ.is_none(),
            "scan of {:?} as of {:?} (background {}, fold {}) differs at {:?}: got {:?}, want {:?}",
            range, as_of, background, fold, differ,
            differ.map(|i| brief(got.get(i))), differ.map(|i| brief(want.get(i)))
        );
        prop_assert_eq!(
            f.engine.stats().ops.scan_next.count - before,
            got.len() as u64,
            "a scan reports exactly the records it returned"
        );
        if as_of.is_none() {
            for key in probes {
                let want = expected(base, &history, &[], (key, key), u64::MAX).pop();
                prop_assert_eq!(f.engine.get(&f.session, key).unwrap(), want, "get({})", key);
            }
        }
        f.engine.shutdown();
    }

    /// The same steps through 1, 2 and 4 shards over one shared heap.
    /// The splits fall inside heap pages and a rewrite chunk is two
    /// pages, so shard migrations keep meeting pages and chunks that
    /// straddle a boundary.
    #[test]
    fn sharded_reads_equal_the_model_and_the_single_shard(
        (base, fold) in (0u64..400, any::<bool>()),
        steps in proptest::collection::vec(step_strategy(900), 0..1200),
        probes in proptest::collection::vec(0u64..900, 1..12),
    ) {
        let engines: Vec<Sharded> = [vec![], vec![451], vec![225, 451, 676]]
            .into_iter()
            .map(|splits| {
                let mut cfg = MasmConfig::small_for_tests();
                cfg.merge_duplicates = fold;
                // `migrate_all` takes every shard that holds anything.
                cfg.migration_threshold = 0.0;
                sharded(cfg, splits, base, 2)
            })
            .collect();
        let mut history: BTreeMap<Key, Vec<UpdateRecord>> = BTreeMap::new();
        for step in steps {
            for (i, f) in engines.iter().enumerate() {
                match &step {
                    Step::Update(key, op) => {
                        let ts = f.engine.put(&f.session, *key, op.clone()).unwrap();
                        if i == 0 {
                            let update = UpdateRecord::new(ts, *key, op.clone());
                            history.entry(*key).or_default().push(update);
                        }
                    }
                    Step::Flush => f.engine.flush_all(&f.session).unwrap(),
                    Step::Compact => {
                        for shard in f.engine.shards() {
                            shard.compact_runs(&f.session).unwrap();
                        }
                    }
                    Step::Migrate => {
                        f.engine.migrate_all(&f.session).unwrap();
                    }
                    Step::MigrateRange(begin, width) => {
                        for shard in f.engine.shards() {
                            shard.migrate_range(&f.session, *begin, begin + width).unwrap();
                        }
                    }
                }
            }
        }

        let want = expected(base, &history, &[], (0, Key::MAX), u64::MAX);
        let single: Vec<Record> = engines[0].engine.scan(0, Key::MAX).unwrap().collect();
        for f in &engines {
            let shards = f.engine.shards().len();
            let got: Vec<Record> = f.engine.scan(0, Key::MAX).unwrap().collect();
            let differ = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i));
            prop_assert!(
                differ.is_none(),
                "{} shards: scan differs from the model at {:?}: got {:?}, want {:?}",
                shards, differ, differ.map(|i| got.get(i)), differ.map(|i| want.get(i))
            );
            prop_assert!(got == single, "{} shards differ from the single shard", shards);
            for &key in &probes {
                let want = expected(base, &history, &[], (key, key), u64::MAX).pop();
                let got = f.engine.get(&f.session, key).unwrap();
                prop_assert_eq!(got, want, "{} shards: get({})", shards, key);
            }
        }
    }
}

struct Sharded {
    engine: Arc<ShardedEngine>,
    session: SessionHandle,
    disk: SimDevice,
}

/// A `ShardedEngine` split at `splits` over a heap of `n_records`
/// even keys, rewritten `chunk_pages` pages at a time.
fn sharded(mut cfg: MasmConfig, splits: Vec<Key>, n_records: u64, chunk_pages: usize) -> Sharded {
    let clock = SimClock::new();
    let shards = splits.len() + 1;
    cfg.sharding.splits = splits;
    let device = |profile| SimDevice::in_memory(profile, clock.clone());
    let ssds = |n| (0..n).map(|_| device(DeviceProfile::ssd_x25e())).collect();
    let disk = device(DeviceProfile::hdd_barracuda());
    let heap_cfg = HeapConfig {
        rewrite_chunk_pages: chunk_pages,
        ..HeapConfig::default()
    };
    let engine = ShardedEngine::new(
        Arc::new(TableHeap::new(disk.clone(), heap_cfg)),
        ssds(shards),
        ssds(shards),
        schema(),
        cfg,
    )
    .unwrap();
    let session = SessionHandle::fresh(clock.clone());
    engine
        .load_table(
            &session,
            (0..n_records).map(|i| Record::new(i * 2, payload(i as u32))),
            1.0,
        )
        .unwrap();
    Sharded {
        engine,
        session,
        disk,
    }
}

/// A shard migrates its own key range: it reads and writes its share
/// of the heap, not all of it, and leaves the other shards' cached
/// updates readable.
#[test]
fn a_shard_migrates_only_its_own_pages() {
    let n = 20_000u64;
    let splits = vec![n / 2 + 1, n + 1, 3 * n / 2 + 1];
    let f = sharded(MasmConfig::small_for_tests(), splits, n, 64);
    for key in (0..2 * n).step_by(50) {
        f.engine
            .put(&f.session, key, UpdateOp::Replace(payload(7)))
            .unwrap();
    }
    f.engine.flush_all(&f.session).unwrap();
    let heap_bytes = f.engine.shards()[0].heap().data_bytes();

    let before = f.disk.stats();
    let report = f.engine.shards()[1].migrate(&f.session).unwrap();
    let delta = f.disk.stats().delta(&before);
    assert!(report.updates_applied > 0);
    assert_eq!(f.engine.shards()[1].run_count(), 0);
    assert!(
        delta.bytes_read < heap_bytes / 3 && delta.bytes_written < heap_bytes / 3,
        "a quarter of the keys is a quarter of the heap ({heap_bytes} bytes): {delta:?}"
    );
    for key in (0..2 * n).step_by(50) {
        let got = f.engine.get(&f.session, key).unwrap().expect("loaded key");
        assert_eq!(schema().get_u32(&got.payload, 0), 7, "key {key}");
    }
}

/// Enough records for several 1 MiB heap batches per shard.
const BIG: u64 = 60_000;

#[test]
fn heap_read_fault_mid_scan_is_visible() {
    let f = fixture(MasmConfig::small_for_tests(), BIG);
    f.engine
        .apply_update(&f.session, BIG * 2 + 1, UpdateOp::Insert(payload(1)))
        .unwrap();
    let mut scan = f.engine.begin_scan(f.session.clone(), 0, Key::MAX).unwrap();
    assert!(scan.next().is_some());
    assert!(scan.error().is_none());
    f.disk.inject_read_fault();
    // The read-ahead of the next batch fails while the pages of this one
    // are still being handed out: the scan must remember it to the end.
    let got: Vec<Record> = scan.by_ref().collect();
    assert!(!got.is_empty(), "the batch already read is handed out");
    assert!(
        (got.len() as u64) < BIG - 1,
        "the table cannot have been read, got {}",
        got.len()
    );
    let mut model = (1..BIG).map(|i| Record::new(i * 2, payload(i as u32)));
    assert!(
        got.iter().all(|r| model.next().as_ref() == Some(r)),
        "what a failed scan returned is a prefix of the answer: no insert \
         past the pages that were never read"
    );
    assert!(
        matches!(
            scan.error(),
            Some(MasmError::Storage(StorageError::Faulted(_)))
        ),
        "a scan cut short by the disk must say so"
    );
    assert!(scan.next().is_none(), "and it stays ended");
}

#[test]
fn sharded_scan_stops_at_the_failed_shard() {
    let Sharded { engine, disk, .. } = sharded(MasmConfig::small_for_tests(), vec![BIG], BIG, 1024);
    let mut scan = engine.scan(0, Key::MAX).unwrap();
    assert!(scan.next().is_some());
    disk.inject_read_fault();
    let got = 1 + scan.by_ref().count() as u64;
    assert!(
        got < BIG / 2,
        "shard 0 failed part-way, so shard 1 must not be read: got {got}"
    );
    assert!(scan.error().is_some());
}

/// Three runs of mixed updates spread over a table of `FLASH_BASE`
/// records, nothing cached, nothing buffered: every update a query
/// needs is a flash read away. Returns what a scan of everything must
/// return. `put` applies one update and returns its timestamp, `flush`
/// turns the buffer into a run.
fn three_flash_runs(
    mut put: impl FnMut(Key, UpdateOp) -> u64,
    mut flush: impl FnMut(),
) -> Vec<Record> {
    let mut history: BTreeMap<Key, Vec<UpdateRecord>> = BTreeMap::new();
    for i in 0..900u64 {
        let slot = i * 7919 % FLASH_BASE;
        let (key, op) = match i % 3 {
            0 => (slot * 2 + 1, UpdateOp::Insert(payload(i as u32))),
            1 => (slot * 2, UpdateOp::Delete),
            _ => (slot * 2, UpdateOp::Replace(payload(i as u32))),
        };
        let ts = put(key, op.clone());
        history
            .entry(key)
            .or_default()
            .push(UpdateRecord::new(ts, key, op));
        if i % 300 == 299 {
            flush();
        }
    }
    expected(FLASH_BASE, &history, &[], (0, Key::MAX), u64::MAX)
}

const FLASH_BASE: u64 = 4_000;

/// No block cache to speak of (a block is heavier than a shard of it,
/// and is refused): every scan reads its run blocks off the flash.
fn uncached() -> MasmConfig {
    MasmConfig {
        block_cache_bytes: 0,
        cache_tier2_bytes: 0,
        ..MasmConfig::small_for_tests()
    }
}

/// What a query does while `flash` fails reads, and after: before
/// anything is read and with the scan part-way, it ends early without
/// panicking, with a prefix of `want` and the fault as its error; with
/// the device reading again a fresh scan returns `want`.
fn query_under_a_flash_read_fault<S>(
    flash: &SimDevice,
    want: &[Record],
    open: impl Fn() -> S,
    error: impl Fn(&S) -> Option<&MasmError>,
) where
    S: Iterator<Item = Record>,
{
    let faulted =
        |e: Option<&MasmError>| matches!(e, Some(MasmError::Storage(StorageError::Faulted(_))));
    for already_read in [0, 500] {
        let mut scan = open();
        let mut got: Vec<Record> = scan.by_ref().take(already_read).collect();
        assert!(error(&scan).is_none());
        flash.inject_read_fault();
        got.extend(scan.by_ref());
        assert!(
            got.len() >= already_read && got.len() < want.len(),
            "{} of {} records after {already_read}",
            got.len(),
            want.len()
        );
        assert!(want.starts_with(&got), "a prefix of the right answer");
        assert!(faulted(error(&scan)), "{:?}", error(&scan));
        assert!(scan.next().is_none(), "and it stays ended");
        flash.clear_read_fault();
        drop(scan);

        let mut scan = open();
        let got: Vec<Record> = scan.by_ref().collect();
        assert!(got == want, "with the device reading again");
        assert!(error(&scan).is_none());
    }
}

/// The run scans a query opens have an error slot: a flash device that
/// fails reads ends the query with an error. It used to end the
/// process — the last panic on the read path (`RunScan::next`).
#[test]
fn flash_read_fault_during_a_query_is_an_error_not_a_panic() {
    let f = fixture(uncached(), FLASH_BASE);
    let want = three_flash_runs(
        |key, op| f.engine.apply_update(&f.session, key, op).unwrap(),
        || f.engine.flush_buffer(&f.session).unwrap(),
    );
    assert_eq!(f.engine.run_count(), 3);
    query_under_a_flash_read_fault(
        f.engine.ssd(),
        &want,
        || f.engine.begin_scan(f.session.clone(), 0, Key::MAX).unwrap(),
        |scan| scan.error(),
    );
    // Every one of those scans gave its pin back: a migration waits for
    // the queries before it.
    let report = f.engine.migrate(&f.session).unwrap();
    assert_eq!((report.updates_applied, f.engine.run_count()), (900, 0));
    assert_eq!(f.engine.cache_stats().insertions, 0, "nothing was cached");
    let got: Vec<Record> = f
        .engine
        .begin_scan(f.session.clone(), 0, Key::MAX)
        .unwrap()
        .collect();
    assert!(got == want, "after the migration");
}

#[test]
fn a_corrupt_run_block_fails_the_query_with_a_checksum_error() {
    let f = fixture(MasmConfig::small_for_tests(), FLASH_BASE);
    let mut flushes = 0;
    let want = three_flash_runs(
        |key, op| f.engine.apply_update(&f.session, key, op).unwrap(),
        // One run from offset 0, most of it 1 KiB data blocks in key
        // order: its middle byte is in the block with the middle keys.
        || {
            flushes += 1;
            if flushes == 3 {
                f.engine.flush_buffer(&f.session).unwrap()
            }
        },
    );
    assert_eq!(f.engine.run_count(), 1);
    let ssd = f.engine.ssd();
    let middle = ssd.len() / 2;
    let flip = || {
        let (byte, _) = ssd.read_at(f.session.now(), middle, 1).unwrap();
        ssd.write_at(f.session.now(), middle, &[!byte[0]]).unwrap();
    };
    flip();
    let mut scan = f.engine.begin_scan(f.session.clone(), 0, Key::MAX).unwrap();
    let got: Vec<Record> = scan.by_ref().collect();
    assert!(!got.is_empty() && got.len() < want.len(), "{}", got.len());
    assert!(want.starts_with(&got), "a prefix of the right answer");
    assert!(
        matches!(
            scan.error(),
            Some(MasmError::BlockRun(
                masm_blockrun::BlockRunError::ChecksumMismatch { .. }
            ))
        ),
        "{:?}",
        scan.error()
    );
    drop(scan);

    flip();
    let mut scan = f.engine.begin_scan(f.session.clone(), 0, Key::MAX).unwrap();
    let got: Vec<Record> = scan.by_ref().collect();
    assert!(got == want && scan.error().is_none());
    drop(scan);
    f.engine.migrate(&f.session).unwrap();
    assert_eq!(f.engine.run_count(), 0);
}

/// The same fault under a cross-shard scan: the failed shard's error is
/// the scan's, and the shards after it are not read.
#[test]
fn sharded_scan_reports_a_flash_read_fault() {
    let mut cfg = uncached();
    cfg.migration_threshold = 0.0;
    let f = sharded(cfg, vec![FLASH_BASE + 1], FLASH_BASE, 1024);
    let want = three_flash_runs(
        |key, op| f.engine.put(&f.session, key, op).unwrap(),
        || f.engine.flush_all(&f.session).unwrap(),
    );
    // Shard 1's flash fails; shard 0's half of the table reads fine.
    let flash = f.engine.shards()[1].ssd();
    let shard0 = want.iter().filter(|r| r.key <= FLASH_BASE).count();
    for already_read in [0, shard0 + 200] {
        let mut scan = f.engine.scan(0, Key::MAX).unwrap();
        let mut got: Vec<Record> = scan.by_ref().take(already_read).collect();
        flash.inject_read_fault();
        got.extend(scan.by_ref());
        assert!(
            got.len() >= shard0.max(already_read) && got.len() < want.len(),
            "{} of {} records, {shard0} of them shard 0's",
            got.len(),
            want.len()
        );
        assert!(want.starts_with(&got), "a prefix of the right answer");
        assert!(
            matches!(
                scan.error(),
                Some(MasmError::Storage(StorageError::Faulted(_)))
            ),
            "{:?}",
            scan.error()
        );
        flash.clear_read_fault();
        drop(scan);
        let mut scan = f.engine.scan(0, Key::MAX).unwrap();
        let got: Vec<Record> = scan.by_ref().collect();
        assert!(got == want && scan.error().is_none());
    }
    // Both shards' pins are back.
    f.engine.migrate_all(&f.session).unwrap();
    let runs: usize = f.engine.shards().iter().map(|e| e.run_count()).sum();
    assert_eq!(runs, 0);
    let got: Vec<Record> = f.engine.scan(0, Key::MAX).unwrap().collect();
    assert!(got == want, "after the migrations");
}
