//! Ablation study of MaSM's design choices (not a paper figure; listed
//! under `tab_*` in the README's "Paper figure index"):
//!
//! 1. **Run index granularity** — the mechanism behind Figure 9's
//!    coarse/fine split, extended with "no index" (whole-run reads) to
//!    show the index is what makes small scans cheap.
//! 2. **Duplicate folding** (§3.5) under skewed updates — how much cache
//!    space and scan work folding saves at materialization time.
//! 3. **The α spectrum** (§3.4) — query overhead stays flat while write
//!    amplification falls as memory doubles.

use masm_core::IndexGranularity;
use masm_storage::MIB;
use masm_workloads::synthetic::{UpdateMix, UpdateStreamGen};

use crate::{ratio, Report, SyntheticEnv};

pub(crate) fn run(mb: u64) -> Report {
    let mb = mb.min(32);
    let baseline = SyntheticEnv::new(mb);
    let mut report = Report::default();

    // --- 1. Index granularity ------------------------------------------
    let mut rows = Vec::new();
    for (label, granularity) in [
        ("fine (1 KiB)", IndexGranularity::Bytes(1024)),
        ("coarse (64 KiB)", IndexGranularity::Bytes(64 * 1024)),
        ("none (whole-run)", IndexGranularity::Bytes(u64::MAX / 2)),
    ] {
        let env = SyntheticEnv::with_config_mutator(mb, |cfg| {
            cfg.index_granularity = granularity;
            cfg.migration_threshold = 1.0;
        });
        env.fill_cache(0.5, 42);
        let mut row = vec![label.to_string()];
        for &size in &[4 * 1024u64, MIB] {
            let ranges = baseline.ranges(size, 5);
            let base = baseline.mean_pure_scan(&ranges);
            row.push(ratio(env.mean_masm_scan(&ranges), base));
        }
        rows.push(row);
    }
    report.table(
        "Ablation 1 — run index granularity (cache 50% full)",
        &["index", "4KB scan", "1MB scan"],
        &rows,
    );

    // --- 2. Duplicate folding under skew --------------------------------
    let mut rows = Vec::new();
    for (label, fold) in [("folding on (§3.5)", true), ("folding off", false)] {
        let env = SyntheticEnv::with_config_mutator(mb, |cfg| {
            cfg.merge_duplicates = fold;
            cfg.migration_threshold = 1.0;
        });
        let session = env.machine.session();
        // Very hot key set (1k slots) so duplicates dominate.
        let hot = masm_workloads::synthetic::SyntheticTable::new(1_000);
        let mut gen = UpdateStreamGen::zipf(hot, UpdateMix::default(), 0.99, 9);
        let mut ingested = 0u64;
        for _ in 0..10_000 {
            let (key, op) = gen.next_update();
            match env.engine.apply_update(&session, key, op) {
                Ok(_) => ingested += 1,
                Err(masm_core::MasmError::CacheFull { .. }) => break,
                Err(e) => panic!("{e}"),
            }
        }
        let cached_kb = env.engine.cached_bytes() / 1024;
        let ranges = baseline.ranges(MIB, 5);
        let base = baseline.mean_pure_scan(&ranges);
        rows.push(vec![
            label.to_string(),
            format!("{ingested}"),
            format!("{cached_kb} KiB"),
            ratio(env.mean_masm_scan(&ranges), base),
        ]);
    }
    report.table(
        "Ablation 2 — duplicate folding, 10k Zipf(0.99) updates over 1k hot keys",
        &["variant", "ingested", "cached bytes", "1MB scan"],
        &rows,
    );

    // --- 3. The alpha spectrum ------------------------------------------
    let mut rows = Vec::new();
    for alpha in [0.5f64, 1.0, 2.0] {
        let env = SyntheticEnv::with_config_mutator(mb, |cfg| {
            cfg.alpha = alpha;
            cfg.migration_threshold = 1.0;
            cfg.merge_duplicates = false;
            cfg.ssd_page_size = 1024;
            cfg.ssd_capacity = 4 * 1024 * 1024;
            cfg.index_granularity = IndexGranularity::Bytes(512);
        });
        env.machine.ssd.reset_stats();
        env.fill_cache(0.5, 42);
        // Force the run-budget merges that cost the extra writes.
        let session = env.machine.session();
        let _ = env.engine.begin_scan(session, 0, 10).unwrap().count();
        let logical = env.engine.stats().ingested_bytes;
        let amp = env.machine.ssd.stats().bytes_written as f64 / logical.max(1) as f64;
        let mem_kb = env.engine.config().total_memory_bytes() / 1024;
        let ranges = baseline.ranges(MIB, 5);
        let base = baseline.mean_pure_scan(&ranges);
        rows.push(vec![
            format!("α = {alpha}"),
            format!("{mem_kb} KiB"),
            format!("{amp:.2}"),
            ratio(env.mean_masm_scan(&ranges), base),
        ]);
    }
    report.table(
        "Ablation 3 — MaSM-αM spectrum (memory vs SSD writes vs query overhead)",
        &["variant", "memory", "writes/updateB", "1MB scan"],
        &rows,
    );
    report.note(
        "takeaways: the run index is what keeps small scans cheap; folding shrinks\n\
         the cache by the duplicate factor under skew; α trades memory for SSD\n\
         lifetime without touching query overhead.",
    );
    report
}
