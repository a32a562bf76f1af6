//! §2.3 analysis (Figure 5(c) discussion): writes per update entry when
//! LSM is applied to IU, analytically and measured on our LSM-IU
//! baseline.
//!
//! Paper numbers for 4 GB flash / 16 MB memory: a 2-level LSM (h = 1)
//! writes each entry ≈128 times; the write-optimal LSM has h = 4 and
//! still writes each entry ≈17 times — "applying LSM on an SSD reduces
//! its lifetime 17 fold (e.g., from 3 years to 2 months)".

use std::sync::Arc;

use masm_baselines::lsm::{LsmConfig, LsmEngine};
use masm_core::theory::{lsm_optimal_levels, lsm_writes_per_update};
use masm_core::update::UpdateOp;
use masm_pagestore::{HeapConfig, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

use crate::Report;

fn measured_amp(h: u32) -> f64 {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let session = SessionHandle::fresh(clock);
    let schema = Schema::synthetic_100b();
    heap.bulk_load(
        &session,
        (0..1000u64).map(|i| Record::new(i * 2, Record::synthetic(0, 92).payload)),
        1.0,
    )
    .unwrap();
    let mem = 2048usize;
    let flash = mem as u64 * 256; // same flash:memory ratio as the paper
    let engine = LsmEngine::new(heap, ssd, schema, LsmConfig::with_levels(mem, flash, h));
    // Unique keys so duplicate folding cannot shrink levels.
    for i in 0..40_000u64 {
        engine
            .apply_update(&session, i, UpdateOp::Delete, i + 1)
            .unwrap();
    }
    engine.write_amplification()
}

pub(crate) fn run(_mb: u64) -> Report {
    // Analytic table at the paper's exact setting.
    let flash_pages = 65536u64; // 4 GB / 64 KB
    let mem_pages = 256u64; // 16 MB / 64 KB
    let mut rows = Vec::new();
    for h in 1..=6u32 {
        let analytic = lsm_writes_per_update(flash_pages, mem_pages, h);
        rows.push(vec![format!("h={h}"), format!("{analytic:.1}")]);
    }
    let (h_opt, w_opt) = lsm_optimal_levels(flash_pages, mem_pages);
    let mut report = Report::default();
    report
        .table(
            "LSM-IU writes per update — analytic (4 GB flash, 16 MB memory, §2.3)",
            &["levels", "writes/update"],
            &rows,
        )
        .line(&format!(
            "optimal: h={h_opt} with {w_opt:.1} writes/update (paper: h=4, ≈17)"
        ));

    // Measured on the simulated LSM at the same flash:memory ratio.
    let mut rows = Vec::new();
    for h in [1u32, 2, 4] {
        rows.push(vec![format!("h={h}"), format!("{:.1}", measured_amp(h))]);
    }
    report.table(
        "LSM-IU writes per update — measured (scaled, same flash:memory ratio)",
        &["levels", "bytes written / byte ingested"],
        &rows,
    );
    report.note(
        "paper shape: h=1 ≈ 128 writes/update analytically; deeper trees write less,\n\
         bottoming out ≈17 at h=4 — still an order of magnitude above MaSM's ≤2.",
    );
    report
}
