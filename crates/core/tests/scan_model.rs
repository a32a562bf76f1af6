//! Differential test of the read path: whatever mix of heap pages,
//! runs, sealed batches, live buffer and private overlay holds the
//! data, `begin_scan_at` and `get` must return what the reference model
//! says they should — also when the consumer walks away mid-scan, and
//! also when the keyspace is split over the shards of a `ShardedEngine`
//! that migrate one at a time into a shared heap. Plus the read-fault
//! contract: a scan cut short by the disk — or by the flash device
//! under its run scans — says so, returns a prefix of the right answer,
//! and never panics.

use proptest::prelude::*;

use masm_core::config::MasmConfig;
use masm_core::update::{UpdateOp, UpdateRecord};
use masm_core::MasmError;
use masm_model::{
    assert_rows, op_strategy, payload, rows, update_strategy, Model, Op, Outcome, Spec, Table,
};
use masm_pagestore::{Key, Record};
use masm_storage::{SimDevice, StorageError};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn merged_scan_equals_the_model(
        (rows, background, fold) in (0u64..400, any::<bool>(), any::<bool>()),
        ops in proptest::collection::vec(op_strategy(900), 0..1500),
        private in proptest::collection::vec((0u64..900, update_strategy()), 0..6),
        (begin, width, past, take) in (0u64..900, 0u64..900, any::<bool>(), 0usize..1200),
    ) {
        let mut cfg = MasmConfig::small_for_tests();
        // One worker: sealed batches wait for it, so scans meet them.
        cfg.background_workers = background as usize;
        // Unfolded runs keep every version: scans in the past are exact.
        cfg.merge_duplicates = fold;
        let mut t = Table::new(cfg);
        let mut model = t.load(rows);

        // Timestamps a scan may go back to: everything since versions
        // were last folded (a compaction always folds) or absorbed by
        // the heap.
        let mut exact_since: Vec<u64> = Vec::new();
        for op in &ops {
            match t.step(&mut model, op) {
                Outcome::Put(ts) => exact_since.push(ts),
                Outcome::Compact(_) | Outcome::Migrate(_) => exact_since.clear(),
                _ => {}
            }
        }

        let (end, engine) = (begin + width, t.engine());
        let as_of = (past && !fold)
            .then(|| exact_since.get(take % exact_since.len().max(1)).copied())
            .flatten();
        let overlay: Vec<UpdateRecord> = {
            let ts = as_of.unwrap_or_else(|| engine.oracle().next());
            private.iter().map(|(k, op)| UpdateRecord::new(ts, *k, op.clone())).collect()
        };
        let before = engine.stats().ops.scan_next.count;
        let mut scan = engine.begin_scan_at(t.session.clone(), begin, end, as_of, overlay).unwrap();
        let got: Vec<Record> = scan.by_ref().take(take).collect();
        prop_assert!(scan.error().is_none());
        let want = model.scan_with(begin, end, as_of.unwrap_or(scan.timestamp()), &private);
        drop(scan);
        let what = format!(
            "scan of [{begin}, {end}] as of {as_of:?} (background {background}, fold {fold})"
        );
        assert_rows(&got, &want[..take.min(want.len())], what);
        prop_assert_eq!(
            engine.stats().ops.scan_next.count - before,
            got.len() as u64,
            "a scan reports exactly the records it returned"
        );
        t.shutdown();
    }

    /// The same steps through 1, 2 and 4 shards over one shared heap.
    /// The splits fall inside heap pages and a rewrite chunk is two
    /// pages, so shard migrations keep meeting pages and chunks that
    /// straddle a boundary.
    #[test]
    fn sharded_reads_equal_the_model_and_the_single_shard(
        (rows, fold) in (0u64..400, any::<bool>()),
        ops in proptest::collection::vec(op_strategy(900), 0..1200),
    ) {
        let mut tables: Vec<(Table, Model)> = [vec![], vec![451], vec![225, 451, 676]]
            .into_iter()
            .map(|splits| {
                let mut cfg = MasmConfig::small_for_tests();
                cfg.merge_duplicates = fold;
                // `migrate_all` takes every shard that holds anything.
                cfg.migration_threshold = 0.0;
                let t = sharded(cfg, splits, 2);
                let model = t.load(rows);
                (t, model)
            })
            .collect();
        for op in &ops {
            for (t, model) in &mut tables {
                t.step(model, op);
            }
        }
        let single = tables[0].0.rows(0, Key::MAX);
        for (t, model) in &tables {
            t.check(model);
            let shards = t.shards().len();
            assert_rows(&t.rows(0, Key::MAX), &single, format!("{shards} shards against one"));
        }
    }
}

/// A sharded table split at `splits`, rewritten `chunk_pages` heap
/// pages at a time.
fn sharded(mut cfg: MasmConfig, splits: Vec<Key>, chunk_pages: usize) -> Table {
    cfg.sharding.splits = splits;
    let mut spec = Spec::new(cfg, true);
    spec.heap.rewrite_chunk_pages = chunk_pages;
    spec.open()
}

/// A shard migrates its own key range: it reads and writes its share
/// of the heap, not all of it, and leaves the other shards' cached
/// updates readable.
#[test]
fn a_shard_migrates_only_its_own_pages() {
    let n = 20_000u64;
    let splits = vec![n / 2 + 1, n + 1, 3 * n / 2 + 1];
    let mut t = sharded(MasmConfig::small_for_tests(), splits, 64);
    let mut model = t.load(n);
    for key in (0..2 * n).step_by(50) {
        t.step(&mut model, &Op::Put(key, UpdateOp::Replace(payload(7))));
    }
    t.flush().unwrap();
    let heap_bytes = t.shards()[0].heap().data_bytes();

    let before = t.dev.disk.stats();
    let report = t.shards()[1].migrate(&t.session).unwrap();
    let delta = t.dev.disk.stats().delta(&before);
    assert!(report.updates_applied > 0);
    assert_eq!(t.shards()[1].run_count(), 0);
    assert!(
        delta.bytes_read < heap_bytes / 3 && delta.bytes_written < heap_bytes / 3,
        "a quarter of the keys is a quarter of the heap ({heap_bytes} bytes): {delta:?}"
    );
    for key in (0..2 * n).step_by(50) {
        t.step(&mut model, &Op::Get(key));
    }
}

/// Enough records for several 1 MiB heap batches per shard.
const BIG: u64 = 60_000;

#[test]
fn heap_read_fault_mid_scan_is_visible() {
    let t = Table::new(MasmConfig::small_for_tests());
    t.load(BIG);
    t.put(BIG * 2 + 1, UpdateOp::Insert(payload(1))).unwrap();
    let mut scan = t.scan(0, Key::MAX).unwrap();
    assert!(scan.next().is_some());
    assert!(scan.error().is_none());
    t.dev.disk.inject_read_fault();
    // The read-ahead of the next batch fails while the pages of this one
    // are still being handed out: the scan must remember it to the end.
    let got: Vec<Record> = scan.by_ref().collect();
    assert!(!got.is_empty(), "the batch already read is handed out");
    assert!(
        (got.len() as u64) < BIG - 1,
        "the table cannot have been read, got {}",
        got.len()
    );
    let mut loaded = rows(BIG).skip(1);
    assert!(
        got.iter().all(|r| loaded.next().as_ref() == Some(r)),
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
    let t = sharded(MasmConfig::small_for_tests(), vec![BIG], 1024);
    t.load(BIG);
    let mut scan = t.scan(0, Key::MAX).unwrap();
    assert!(scan.next().is_some());
    t.dev.disk.inject_read_fault();
    let got = 1 + scan.by_ref().count() as u64;
    assert!(
        got < BIG / 2,
        "shard 0 failed part-way, so shard 1 must not be read: got {got}"
    );
    assert!(scan.error().is_some());
}

const FLASH_BASE: u64 = 4_000;

/// Three runs of mixed updates spread over a table of `FLASH_BASE`
/// rows, nothing cached, nothing buffered: every update a query needs
/// is a flash read away. Returns what a scan of everything must return.
/// `flush` turns the buffer into a run.
fn three_flash_runs(t: &mut Table, mut flush: impl FnMut(&Table)) -> Vec<Record> {
    let mut model = t.load(FLASH_BASE);
    for i in 0..900u64 {
        let slot = i * 7919 % FLASH_BASE;
        let (key, op) = match i % 3 {
            0 => (slot * 2 + 1, UpdateOp::Insert(payload(i as u32))),
            1 => (slot * 2, UpdateOp::Delete),
            _ => (slot * 2, UpdateOp::Replace(payload(i as u32))),
        };
        t.step(&mut model, &Op::Put(key, op));
        if i % 300 == 299 {
            flush(t);
        }
    }
    model.scan(0, Key::MAX, u64::MAX)
}

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
/// the device reading again a fresh scan returns `want`. `shard0` of
/// the records come from shards `flash` is not under.
fn query_under_a_flash_read_fault(t: &Table, flash: &SimDevice, want: &[Record], shard0: usize) {
    let faulted =
        |e: Option<&MasmError>| matches!(e, Some(MasmError::Storage(StorageError::Faulted(_))));
    for already_read in [0, shard0 + 500] {
        let mut scan = t.scan(0, Key::MAX).unwrap();
        let mut got: Vec<Record> = scan.by_ref().take(already_read).collect();
        assert!(scan.error().is_none());
        flash.inject_read_fault();
        got.extend(scan.by_ref());
        assert!(
            got.len() >= shard0.max(already_read) && got.len() < want.len(),
            "{} of {} records after {already_read}, {shard0} of them from good shards",
            got.len(),
            want.len()
        );
        assert!(want.starts_with(&got), "a prefix of the right answer");
        assert!(faulted(scan.error()), "{:?}", scan.error());
        assert!(scan.next().is_none(), "and it stays ended");
        flash.clear_read_fault();
        drop(scan);
        assert_rows(&t.rows(0, Key::MAX), want, "with the device reading again");
    }
}

/// The run scans a query opens have an error slot: a flash device that
/// fails reads ends the query with an error. It used to end the
/// process — the last panic on the read path (`RunScan::next`).
#[test]
fn flash_read_fault_during_a_query_is_an_error_not_a_panic() {
    let mut t = Table::new(uncached());
    let want = three_flash_runs(&mut t, |t| t.flush().unwrap());
    assert_eq!(t.engine().run_count(), 3);
    query_under_a_flash_read_fault(&t, &t.dev.ssds[0], &want, 0);
    // Every one of those scans gave its pin back: a migration waits for
    // the queries before it.
    let report = t.engine().migrate(&t.session).unwrap();
    assert_eq!((report.updates_applied, t.engine().run_count()), (900, 0));
    assert_eq!(t.engine().cache_stats().insertions, 0, "nothing was cached");
    assert_rows(&t.rows(0, Key::MAX), &want, "after the migration");
}

#[test]
fn a_corrupt_run_block_fails_the_query_with_a_checksum_error() {
    let mut t = Table::new(MasmConfig::small_for_tests());
    let mut flushes = 0;
    // One run from offset 0, most of it 1 KiB data blocks in key order:
    // its middle byte is in the block with the middle keys.
    let want = three_flash_runs(&mut t, |t| {
        flushes += 1;
        if flushes == 3 {
            t.flush().unwrap()
        }
    });
    assert_eq!(t.engine().run_count(), 1);
    let (ssd, session) = (&t.dev.ssds[0], &t.session);
    let middle = ssd.len() / 2;
    let flip = || {
        let byte = session.read(ssd, middle, 1).unwrap()[0];
        ssd.write_at(session.now(), middle, &[!byte]).unwrap();
    };
    flip();
    let mut scan = t.scan(0, Key::MAX).unwrap();
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
    assert_rows(&t.rows(0, Key::MAX), &want, "with the block restored");
    t.migrate().unwrap();
    assert_eq!(t.engine().run_count(), 0);
}

/// The same fault under a cross-shard scan: the failed shard's error is
/// the scan's, and the shards after it are not read.
#[test]
fn sharded_scan_reports_a_flash_read_fault() {
    let mut cfg = uncached();
    cfg.migration_threshold = 0.0;
    let mut t = sharded(cfg, vec![FLASH_BASE + 1], 1024);
    let want = three_flash_runs(&mut t, |t| t.flush().unwrap());
    // Shard 1's flash fails; shard 0's half of the table reads fine.
    let shard0 = want.iter().filter(|r| r.key <= FLASH_BASE).count();
    query_under_a_flash_read_fault(&t, &t.dev.ssds[1], &want, shard0);
    // Both shards' pins are back.
    t.migrate().unwrap();
    let runs: usize = t.shards().iter().map(|e| e.run_count()).sum();
    assert_eq!(runs, 0);
    assert_rows(&t.rows(0, Key::MAX), &want, "after the migrations");
}
