//! §4.2 "HDD as Update Cache": replace the SSD update cache with a
//! second SATA disk.
//!
//! Paper result: 28.8× query slowdown at 1 MB ranges and 4.7× at 10 MB —
//! the disk's terrible random-read latency makes the per-run cache reads
//! dominate small scans. "This shows the significance of MaSM's use of
//! SSDs for the update cache."

use std::sync::Arc;

use masm_pagestore::{HeapConfig, TableHeap};
use masm_storage::{DeviceProfile, SimDevice, MIB};

use crate::{ratio, scaled_masm_config, size_label, Machine, Report, SyntheticEnv};

fn build(cache_profile: DeviceProfile, mb: u64) -> SyntheticEnv {
    // Assemble an env manually so the cache device profile is ours.
    let machine = Machine::new();
    let cache = SimDevice::in_memory(cache_profile, machine.clock.clone());
    let table = masm_workloads::synthetic::SyntheticTable::with_bytes(mb * MIB);
    let mut cfg = scaled_masm_config(mb * MIB);
    cfg.migration_threshold = 1.0;
    let heap = Arc::new(TableHeap::new(machine.disk.clone(), HeapConfig::default()));
    let engine =
        masm_core::MasmEngine::new(heap, cache, machine.wal.clone(), table.schema.clone(), cfg)
            .unwrap();
    let session = machine.session();
    engine.load_table(&session, table.records(), 1.0).unwrap();
    let table_bytes = mb * MIB;
    SyntheticEnv {
        machine,
        engine,
        table,
        table_bytes,
    }
}

pub(crate) fn run(mb: u64) -> Report {
    let baseline = SyntheticEnv::new(mb);

    let ssd_env = build(DeviceProfile::ssd_x25e(), mb);
    ssd_env.fill_cache(0.5, 42);
    let hdd_env = build(DeviceProfile::hdd_barracuda(), mb);
    hdd_env.fill_cache(0.5, 42);

    let mut rows = Vec::new();
    for &size in &[MIB, 10 * MIB] {
        let ranges = baseline.ranges(size, 5);
        let base = baseline.mean_pure_scan(&ranges);
        let ssd = ssd_env.mean_masm_scan(&ranges);
        let hdd = hdd_env.mean_masm_scan(&ranges);
        rows.push(vec![size_label(size), ratio(ssd, base), ratio(hdd, base)]);
    }
    let mut report = Report::default();
    report.table(
        &format!("§4.2 — SSD vs HDD as the update cache (table {mb} MiB, cache 50% full)"),
        &["range", "MaSM w/ SSD cache", "MaSM w/ HDD cache"],
        &rows,
    );
    report.note(
        "paper shape: HDD cache slows 1 MB scans ~28.8x and 10 MB scans ~4.7x;\n\
         the SSD cache stays within a few percent of the pure scan.",
    );
    report
}
