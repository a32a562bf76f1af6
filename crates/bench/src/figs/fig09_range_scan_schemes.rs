//! Figure 9: impact of online update schemes on range scan performance,
//! varying the range size from one disk page to the whole table.
//!
//! Paper result (100 GB table, 4 GB flash 50% full):
//! * in-place updates: 1.7–3.7× slowdowns, *worse* at small ranges;
//! * IU: 1.1–3.8× slowdowns (random 4 KB SSD reads per cached entry);
//! * MaSM w/ coarse-grain index: ≈1× at ≥100 MB ranges, up to 2.9× at
//!   4 KB ranges (reads one full index cell per run);
//! * MaSM w/ fine-grain index: ≤1.07× everywhere (4% at 4 KB ranges).
//!
//! Scaled: table = `mb` MiB, cache 4% of the table, 50% full. Times are
//! normalized to the same scan on a clean table.

use masm_core::IndexGranularity;
use masm_storage::MIB;

use crate::{
    mean_ns, range_ladder, ratio, size_label, time_scan_with_inplace_updates, Report, SyntheticEnv,
};

pub(crate) fn run(mb: u64) -> Report {
    let reps = 5usize;

    // Baseline: clean table, no updates anywhere.
    let baseline = SyntheticEnv::new(mb);

    // MaSM with fine- and coarse-grain run indexes, cache 50% full.
    let masm_fine = SyntheticEnv::with_config_mutator(mb, |cfg| {
        cfg.index_granularity = IndexGranularity::Bytes(1024);
        cfg.migration_threshold = 1.0;
    });
    masm_fine.fill_cache(0.5, 42);
    let masm_coarse = SyntheticEnv::with_config_mutator(mb, |cfg| {
        cfg.index_granularity = IndexGranularity::Bytes(64 * 1024);
        cfg.migration_threshold = 1.0;
    });
    masm_coarse.fill_cache(0.5, 42);

    // IU: same machine shape, cache the same number of updates.
    let iu_env = SyntheticEnv::new(mb);
    let iu = masm_baselines::IuEngine::new(
        std::sync::Arc::clone(iu_env.engine.heap()),
        iu_env.machine.ssd.clone(),
        iu_env.table.schema.clone(),
    );
    {
        let session = iu_env.machine.session();
        let masm_updates = masm_fine.engine.stats().ingested_updates;
        let mut gen = masm_workloads::synthetic::UpdateStreamGen::uniform(
            iu_env.table.clone(),
            masm_workloads::synthetic::UpdateMix::default(),
            42,
        );
        for ts in 1..=masm_updates {
            let (key, op) = gen.next_update();
            iu.apply_update(&session, key, op, ts).unwrap();
        }
    }

    // In-place: fresh table hammered during the scan.
    let inplace_env = SyntheticEnv::new(mb);

    let mut rows = Vec::new();
    for size in range_ladder(mb * MIB) {
        let count = if size <= MIB { reps * 2 } else { reps };
        let ranges = baseline.ranges(size, count);
        let base = baseline.mean_pure_scan(&ranges);
        let inplace = mean_ns(&ranges, |i, b, e| {
            time_scan_with_inplace_updates(&inplace_env, b, e, 100 + i as u64)
        });
        let iu_t = mean_ns(&ranges, |_, b, e| {
            let session = iu_env.machine.session();
            let start = session.now();
            let n = iu
                .begin_scan(session.clone(), b, e, u64::MAX)
                .unwrap()
                .count();
            std::hint::black_box(n);
            session.now() - start
        });
        let coarse = masm_coarse.mean_masm_scan(&ranges);
        let fine = masm_fine.mean_masm_scan(&ranges);
        rows.push(vec![
            size_label(size),
            ratio(inplace, base),
            ratio(iu_t, base),
            ratio(coarse, base),
            ratio(fine, base),
        ]);
    }

    let mut report = Report::default();
    report.table(
        &format!(
            "Figure 9 — range scans with online updates, normalized to no-update scans \
             (table {mb} MiB, cache 50% full)"
        ),
        &["range", "in-place", "IU", "MaSM coarse", "MaSM fine"],
        &rows,
    );
    report.note(
        "paper shape: in-place 1.7-3.7x (worst at small ranges); IU worst in the middle;\n\
         MaSM coarse ~1x at large ranges, up to ~2.9x at 4KB; MaSM fine <=1.07x everywhere.",
    );
    report
}
