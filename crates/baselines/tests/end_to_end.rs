//! Every update scheme must agree on query results: the same update
//! stream through MaSM (held to the reference model), indexed updates
//! (IU) and in-place updates gives byte-identical scans.

use std::sync::Arc;

use masm_baselines::{InPlaceEngine, IuEngine};
use masm_core::MasmConfig;
use masm_model::{assert_rows, rows, schema, Devices, Op, Table};
use masm_pagestore::{HeapConfig, Key, Record, TableHeap};
use masm_workloads::synthetic::{SyntheticTable, UpdateMix, UpdateStreamGen};

/// A heap on `dev`'s disk, loaded with [`rows`]`(n)` at `fill`.
fn heap(dev: &Devices, n: u64, fill: f64) -> Arc<TableHeap> {
    let heap = Arc::new(TableHeap::new(dev.disk.clone(), HeapConfig::default()));
    heap.bulk_load(&dev.session(), rows(n), fill).unwrap();
    heap
}

#[test]
fn all_schemes_agree_on_query_results() {
    const ROWS: u64 = 3_000;
    let updates: Vec<_> =
        UpdateStreamGen::uniform(SyntheticTable::new(ROWS), UpdateMix::default(), 99)
            .take(2_000)
            .collect();

    let mut masm = Table::new(MasmConfig::small_for_tests());
    let mut model = masm.load(ROWS);
    let puts: Vec<Op> = updates
        .iter()
        .map(|(k, op)| Op::Put(*k, op.clone()))
        .collect();
    masm.run(&mut model, &puts);
    let masm_out = masm.rows(0, Key::MAX);

    let dev = Devices::default();
    let iu = IuEngine::new(heap(&dev, ROWS, 1.0), dev.ssd.clone(), schema());
    let s = dev.session();
    for (ts, (k, op)) in updates.iter().enumerate() {
        iu.apply_update(&s, *k, op.clone(), ts as u64 + 1).unwrap();
    }
    let iu_out: Vec<Record> = iu.begin_scan(s, 0, Key::MAX, u64::MAX).unwrap().collect();

    // In-place at fill 0.9, so inserts fit; content equality still holds.
    let dev = Devices::default();
    let heap = heap(&dev, ROWS, 0.9);
    let inplace = InPlaceEngine::new(Arc::clone(&heap), schema());
    let s = dev.session();
    for (ts, (k, op)) in updates.iter().enumerate() {
        inplace
            .apply_update(&s, *k, op.clone(), ts as u64 + 1)
            .unwrap();
    }
    let inplace_out: Vec<Record> = heap.scan_range(s, 0, Key::MAX).collect();

    assert_rows(&iu_out, &masm_out, "IU against MaSM");
    assert_rows(&inplace_out, &masm_out, "in-place against MaSM");
}
