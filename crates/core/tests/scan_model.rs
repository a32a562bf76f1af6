//! Differential test of the read path: whatever mix of heap pages,
//! runs, live buffer and private overlay holds the data,
//! `begin_scan_at` and `get` must return what the reference model says
//! they should — also when the consumer walks away mid-scan, and also
//! when migrations rewrite the heap two pages at a time. (A sealed
//! batch exists only while its flush runs; a scan that meets one is
//! `engine/tests.rs::a_scan_meets_a_sealed_batch`.) Plus the
//! read-fault contract: a scan cut short by the disk — or by the flash
//! device under its run scans — says so, returns a prefix of the right
//! answer, and never panics.

use proptest::prelude::*;

use masm_core::config::MasmConfig;
use masm_core::update::{UpdateOp, UpdateRecord};
use masm_core::MasmError;
use masm_model::{
    assert_rows, op_strategy, payload, rows, update_strategy, Op, Outcome, Spec, Table,
};
use masm_pagestore::{Key, Record};
use masm_storage::StorageError;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn merged_scan_equals_the_model(
        (rows, fold, small_chunks) in (0u64..400, any::<bool>(), any::<bool>()),
        ops in proptest::collection::vec(op_strategy(900), 0..1500),
        private in proptest::collection::vec((0u64..900, update_strategy()), 0..6),
        (begin, width, past, take) in (0u64..900, 0u64..900, any::<bool>(), 0usize..1200),
    ) {
        let mut cfg = MasmConfig::small_for_tests();
        // Unfolded runs keep every version: scans in the past are exact.
        cfg.merge_duplicates = fold;
        // A rewrite chunk of two pages: migrations keep meeting gap
        // inserts at chunk boundaries.
        let mut spec = Spec::new(cfg);
        if small_chunks {
            spec.heap.rewrite_chunk_pages = 2;
        }
        let mut t = spec.open();
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
            "scan of [{begin}, {end}] as of {as_of:?} (fold {fold}, small chunks {small_chunks})"
        );
        assert_rows(&got, &want[..take.min(want.len())], what);
        prop_assert_eq!(
            engine.stats().ops.scan_next.count - before,
            got.len() as u64,
            "a scan reports exactly the records it returned"
        );
    }
}

/// Enough records for several 1 MiB heap batches.
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

/// What a query does while the flash fails reads, and after: before
/// anything is read and with the scan part-way, it ends early without
/// panicking, with a prefix of `want` and the fault as its error; with
/// the device reading again a fresh scan returns `want`.
fn query_under_a_flash_read_fault(t: &Table, want: &[Record]) {
    let faulted =
        |e: Option<&MasmError>| matches!(e, Some(MasmError::Storage(StorageError::Faulted(_))));
    let flash = &t.dev.ssd;
    for already_read in [0, 500] {
        let mut scan = t.scan(0, Key::MAX).unwrap();
        let mut got: Vec<Record> = scan.by_ref().take(already_read).collect();
        assert!(scan.error().is_none());
        flash.inject_read_fault();
        got.extend(scan.by_ref());
        assert!(
            got.len() >= already_read && got.len() < want.len(),
            "{} of {} records after {already_read}",
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
    query_under_a_flash_read_fault(&t, &want);
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
    let (ssd, session) = (&t.dev.ssd, &t.session);
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
