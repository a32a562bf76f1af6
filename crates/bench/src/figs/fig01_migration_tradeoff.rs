//! Figure 1: migration overhead of differential updates as a function of
//! the memory buffer size, normalized to the prior state of the art with
//! 16 GB of memory (log-log in the paper; we print the values).
//!
//! Prior approaches cache updates *in memory*: halving migration
//! overhead requires doubling memory. MaSM caches on flash and needs
//! only `αM` memory pages for an `M²`-page cache, so doubling memory
//! cuts migration overhead by 4× (§3.7).

use masm_core::theory::MigrationModel;

use crate::Report;

pub(crate) fn run(_mb: u64) -> Report {
    let model = MigrationModel::paper_defaults();
    let reference = model.in_memory_overhead(16.0 * 1024.0 * 1024.0 * 1024.0);

    let mems_mb: Vec<f64> = vec![
        16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0,
    ];
    let mut rows = Vec::new();
    for &mb in &mems_mb {
        let bytes = mb * 1024.0 * 1024.0;
        let prior = model.in_memory_overhead(bytes) / reference;
        let masm = model.masm_overhead(bytes, 1.0) / reference;
        let cache_gb = model.masm_cache_bytes(bytes, 1.0) / 1e9;
        rows.push(vec![
            format!("{mb:.0} MB"),
            format!("{prior:.3}"),
            format!("{masm:.6}"),
            format!("{cache_gb:.1} GB"),
        ]);
    }
    let mut report = Report::default();
    report.table(
        "Figure 1 — migration overhead vs memory (normalized to state-of-the-art @16GB)",
        &[
            "memory",
            "state-of-the-art",
            "MaSM (ours)",
            "MaSM SSD cache",
        ],
        &rows,
    );
    report.note(&format!(
        "paper shape: prior curve halves per memory doubling; MaSM curve quarters.\n\
         §3.7 example: a 32 MB MaSM buffer matches the migration overhead of a 16 GB\n\
         in-memory cache (MaSM cache at 32 MB memory = {:.1} GB).",
        model.masm_cache_bytes(32.0 * 1024.0 * 1024.0, 1.0) / 1e9
    ));
    report
}
