//! Figure 10: MaSM range scans while varying how full the SSD update
//! cache is (25% / 50% / 75% / 99%), with migration disabled.
//!
//! Paper result: "in all cases, MaSM achieves performance comparable to
//! range scans without updates. At 4KB ranges, MaSM incurs only 3%–7%
//! overheads." The same data read another way: doubling the flash space
//! at constant fill has the same profile.

use masm_storage::MIB;

use crate::{range_ladder, ratio, size_label, Report, SyntheticEnv};

pub(crate) fn run(mb: u64) -> Report {
    let fills = [0.25, 0.50, 0.75, 0.99];

    let baseline = SyntheticEnv::new(mb);
    let envs: Vec<SyntheticEnv> = fills
        .iter()
        .map(|&f| {
            let env = SyntheticEnv::with_config_mutator(mb, |cfg| {
                cfg.migration_threshold = 1.0; // §4.2: migration disabled
            });
            env.fill_cache(f, 42);
            env
        })
        .collect();

    let mut rows = Vec::new();
    for size in range_ladder(mb * MIB) {
        let ranges = baseline.ranges(size, 5);
        let base = baseline.mean_pure_scan(&ranges);
        let mut row = vec![size_label(size)];
        for env in &envs {
            row.push(ratio(env.mean_masm_scan(&ranges), base));
        }
        rows.push(row);
    }
    let mut report = Report::default();
    report.table(
        &format!(
            "Figure 10 — MaSM scans vs cache fill (table {mb} MiB, fine index, migration off)"
        ),
        &["range", "25% full", "50% full", "75% full", "99% full"],
        &rows,
    );
    report.note("paper shape: all cells within a few percent of 1.0x (<=1.07x at 4KB).");
    report
}
