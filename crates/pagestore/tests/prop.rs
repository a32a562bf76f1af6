//! Property-based tests for the pagestore substrate.

use std::sync::Arc;

use proptest::prelude::*;

use masm_pagestore::page::max_record_len;
use masm_pagestore::record::RECORD_HEADER;
use masm_pagestore::{HeapConfig, Page, Record, SparseIndex, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn record_strategy() -> impl Strategy<Value = Record> {
    (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200))
        .prop_map(|(key, payload)| Record::new(key, payload))
}

proptest! {
    /// Any set of records that fits in a page round-trips through the
    /// slotted layout byte-identically.
    #[test]
    fn page_roundtrip(mut records in proptest::collection::vec(record_strategy(), 0..30)) {
        records.sort_by_key(|r| r.key);
        let mut page = Page::new(8192);
        let mut stored = Vec::new();
        for r in &records {
            if page.append(r) {
                stored.push(r.clone());
            }
        }
        let bytes = page.clone().into_bytes();
        let back = Page::from_bytes(bytes);
        let got: Vec<Record> = back.records().collect();
        prop_assert_eq!(got, stored);
    }

    /// Page binary search agrees with a linear scan.
    #[test]
    fn page_find_agrees_with_linear(keys in proptest::collection::btree_set(0u64..500, 1..30),
                                    probe in 0u64..500) {
        let mut page = Page::new(8192);
        for &k in &keys {
            page.append(&Record::new(k, vec![1]));
        }
        match page.find(probe) {
            Ok(slot) => prop_assert_eq!(page.key_at(slot), probe),
            Err(_) => prop_assert!(!keys.contains(&probe)),
        }
    }

    /// SparseIndex::locate returns the page a linear search would.
    #[test]
    fn sparse_index_locate(mins in proptest::collection::vec(0u64..1000, 1..50),
                           probe in 0u64..1100) {
        let mut mins = mins;
        mins.sort_unstable();
        let idx = SparseIndex::new(mins.clone());
        let got = idx.locate(probe).unwrap();
        // Linear reference: last page whose min <= probe, else 0.
        let want = mins
            .iter()
            .rposition(|&m| m <= probe)
            .unwrap_or(0);
        prop_assert_eq!(got, want);
    }

    /// Heap range scans agree with an in-memory model for arbitrary
    /// (sorted, deduplicated) loads and arbitrary query ranges.
    #[test]
    fn heap_scan_matches_model(keys in proptest::collection::btree_set(0u64..5000, 1..300),
                               ranges in proptest::collection::vec((0u64..5000, 0u64..5000), 1..8)) {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let heap = Arc::new(TableHeap::new(dev, HeapConfig::default()));
        let session = SessionHandle::fresh(clock);
        let records: Vec<Record> = keys.iter().map(|&k| Record::synthetic(k, 50)).collect();
        heap.bulk_load(&session, records.clone(), 1.0).unwrap();
        for (a, b) in ranges {
            let (begin, end) = (a.min(b), a.max(b));
            let got: Vec<u64> = heap
                .scan_range(session.clone(), begin, end)
                .map(|r| r.key)
                .collect();
            let want: Vec<u64> = keys.range(begin..=end).copied().collect();
            prop_assert_eq!(got, want);
        }
    }
}

/// Bytes per slot-directory entry of a page.
const SLOT: usize = 2;
/// Bytes per bulk-load write (the heap's scan I/O size).
const SCAN_IO: usize = 1 << 20;

/// The table `n` records long: keys ascending, payloads of mixed
/// sizes drawn from `seed` — mostly short, some long, and now and then
/// one that fills an empty page exactly.
fn mixed_records(n: usize, seed: u64, page_size: usize) -> Vec<Record> {
    let exact = max_record_len(page_size) - RECORD_HEADER;
    let mut state = seed | 1;
    (0..n as u64)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let draw = (state >> 33) as usize;
            let len = match draw % 16 {
                0 => exact,
                1..=4 => draw / 16 % exact,
                _ => draw / 16 % 200,
            };
            Record::new(i * 3, vec![i as u8; len])
        })
        .collect()
}

/// The pages of `records` packed one `Page::append` at a time, a page
/// closed once the next record would push its records and slots past
/// `fill` of the page or does not fit — the rule of the load that built
/// every page before writing any.
fn reference_pages(records: &[Record], page_size: usize, fill: f64) -> Vec<Page> {
    let budget = (page_size as f64 * fill) as usize;
    let mut pages: Vec<Page> = Vec::new();
    let mut used = 0;
    for r in records {
        let need = RECORD_HEADER + r.payload.len() + SLOT;
        if !pages
            .last()
            .is_some_and(|p| used + need <= budget && p.fits(r))
        {
            pages.push(Page::new(page_size));
            used = 0;
        }
        assert!(
            pages.last_mut().unwrap().append(r),
            "record larger than page"
        );
        used += need;
    }
    pages
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The streamed bulk load packs and writes what building every
    /// page first did: the same device bytes, written by the same
    /// 1 MiB-class writes (so the same session clock), the same page
    /// map, index and record count — at fills 0.5, 0.9 and 1.0, for a
    /// page size that divides the write size and two that do not.
    #[test]
    fn a_streamed_load_writes_the_pages_built_one_append_at_a_time(
        n in 1usize..6000,
        seed in any::<u64>(),
        fill in prop_oneof![Just(0.5), Just(0.9), Just(1.0)],
        page_size in prop_oneof![Just(4096usize), Just(3000usize), Just(512usize)],
    ) {
        let records = mixed_records(n, seed, page_size);
        let cfg = HeapConfig { page_size, ..HeapConfig::default() };

        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let heap = TableHeap::new(dev.clone(), cfg);
        let session = SessionHandle::fresh(clock);
        heap.bulk_load(&session, records.clone(), fill).unwrap();

        let ref_clock = SimClock::new();
        let ref_dev = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), ref_clock.clone());
        let ref_session = SessionHandle::fresh(ref_clock);
        let pages = reference_pages(&records, page_size, fill);
        let mut batch = Vec::new();
        let mut at = 0u64;
        for page in &pages {
            batch.extend_from_slice(page.as_bytes());
            if batch.len() >= SCAN_IO {
                ref_session.write(&ref_dev, at, &batch).unwrap();
                at += batch.len() as u64;
                batch.clear();
            }
        }
        if !batch.is_empty() {
            ref_session.write(&ref_dev, at, &batch).unwrap();
        }

        prop_assert_eq!(session.now(), ref_session.now(), "session clock");
        prop_assert_eq!(dev.stats(), ref_dev.stats());
        let (page_map, min_keys, record_count) = heap.metadata_snapshot();
        let want_map: Vec<u64> = (0..pages.len() as u64).map(|i| i * page_size as u64).collect();
        prop_assert_eq!(page_map, want_map);
        let want_keys: Vec<u64> = pages.iter().map(|p| p.min_key().unwrap()).collect();
        prop_assert_eq!(min_keys, want_keys);
        prop_assert_eq!(record_count, n as u64);
        prop_assert_eq!(dev.len(), ref_dev.len());
        let len = dev.len();
        let bytes = session.read(&dev, 0, len).unwrap();
        prop_assert!(bytes == ref_session.read(&ref_dev, 0, len).unwrap(), "device bytes");
    }
}
