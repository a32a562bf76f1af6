//! Figure 12: sustained update throughput.
//!
//! Paper result (100 GB table): disk random 4 KB writes sustain 68/s,
//! in-place read-modify-write updates 48/s, and MaSM 3472 / 6631 /
//! 12498 updates/s with 2 / 4 / 8 GB of flash — orders of magnitude
//! higher, and doubling the flash doubles the rate (migrations happen
//! half as often while each costs the same table rewrite).
//!
//! Setup per the paper: migration threshold 50%; updates are sent as
//! fast as possible; every table scan migrates the accumulated half of
//! the flash while the other half fills.
//!
//! Besides the summary table this figure exports an NDJSON time series
//! for the canonical `MaSM C` configuration: one `TS:`-prefixed line
//! per sample (sampled on a virtual-clock interval, plus a forced
//! sample after every migration and at the end), each carrying the
//! full [`masm_core::EngineStats`] snapshot, the delta since the
//! previous row, and the `random_writes` invariant field at the top
//! level; every row is checked to parse back before it is reported.

use masm_core::EngineStats;
use masm_telemetry::json::parse;
use masm_telemetry::TimeSeriesWriter;
use masm_workloads::synthetic::{UpdateMix, UpdateStreamGen};

use crate::{secs, Report, SyntheticEnv};

pub(crate) fn run(mb: u64) -> Report {
    let mut rows = Vec::new();

    // Raw random 4 KB writes on the disk.
    {
        let env = SyntheticEnv::new(mb);
        let session = env.machine.session();
        let n = 200u64;
        let start = session.now();
        let span = env.table_bytes;
        for i in 0..n {
            let off = ((i * 7_919_999) % span) & !4095;
            session.write(&env.machine.disk, off, &[0u8; 4096]).unwrap();
        }
        let rate = n as f64 / secs(session.now() - start);
        rows.push(vec![
            "disk random writes".into(),
            format!("{rate:.0}"),
            n.to_string(),
        ]);
    }

    // Conventional in-place updates (read-modify-write), no queries.
    {
        let env = SyntheticEnv::new(mb);
        let session = env.machine.session();
        let inplace = masm_baselines::InPlaceEngine::new(
            std::sync::Arc::clone(env.engine.heap()),
            env.table.schema.clone(),
        );
        let mut gen = UpdateStreamGen::uniform(
            env.table.clone(),
            UpdateMix {
                insert: 0.0,
                delete: 0.0,
                modify: 1.0,
            },
            7,
        );
        let n = 200u64;
        let start = session.now();
        for ts in 1..=n {
            let (key, op) = gen.next_update();
            inplace.apply_update(&session, key, op, ts).unwrap();
        }
        let rate = n as f64 / secs(session.now() - start);
        rows.push(vec![
            "in-place updates".into(),
            format!("{rate:.0}"),
            n.to_string(),
        ]);
    }

    // MaSM with three flash sizes (cache fraction ×0.5, ×1, ×2). The
    // canonical ×1 run also exports an NDJSON time series.
    let mut series: Option<(Vec<String>, EngineStats)> = None;
    for (label, factor) in [("MaSM halfC", 0.5), ("MaSM C", 1.0), ("MaSM 2C", 2.0)] {
        let env = SyntheticEnv::with_config_mutator(mb, |cfg| {
            // Keep the same 64-page floor as `scaled_masm_config`: at
            // tiny CI scales halving the flash would otherwise push
            // alpha below the 2/M^(1/3) bound of §3.4.
            cfg.ssd_capacity =
                (((cfg.ssd_capacity as f64 * factor) as u64 / 4096) * 4096).max(64 * 4096);
            cfg.migration_threshold = 0.5;
        });
        let session = env.machine.session();
        let mut gen = UpdateStreamGen::uniform(env.table.clone(), UpdateMix::default(), 11);
        // Sample every mb x 2 ms of virtual time — a handful of rows
        // per fill-the-flash phase at any scale (the span between
        // migrations grows with the flash, which grows with `mb`).
        let mut ts = (factor == 1.0).then(|| TimeSeriesWriter::new(mb * 2_000_000));
        let start = session.now();
        let mut applied = 0u64;
        let mut migrations = 0;
        while migrations < 3 {
            let (key, op) = gen.next_update();
            env.engine.apply_update(&session, key, op).unwrap();
            applied += 1;
            if let Some(ts) = ts.as_mut() {
                // Cheap when no sample is due; sampling itself is two
                // short lock holds plus atomic loads.
                ts.poll(&env.engine.stats());
            }
            if env.engine.needs_migration() {
                // "Every table scan incurs the migration of updates":
                // the migration is itself the full-table merge scan.
                env.engine.migrate(&session).unwrap();
                migrations += 1;
                if let Some(ts) = ts.as_mut() {
                    // A forced row after each migration captures the
                    // post-migration level drop even at coarse scales.
                    ts.sample(&env.engine.stats());
                }
            }
        }
        let rate = applied as f64 / secs(session.now() - start);
        let cache_kb = env.engine.config().ssd_capacity / 1024;
        let stats = env.engine.stats();
        rows.push(vec![
            format!("{label} ({cache_kb} KiB flash)"),
            format!("{rate:.0}"),
            stats.ingested_updates.to_string(),
            stats.ops.migrate.count.to_string(),
            stats.ssd.random_writes.to_string(),
        ]);
        if let Some(ts) = ts {
            series = Some((ts.rows, stats));
        }
    }
    let (ts_rows, end_stats) = series.expect("MaSM C run exports the time series");

    let mut report = Report::default();
    report.table(
        &format!(
            "Figure 12 — sustained updates/second (virtual time; table {mb} MiB, scaled {}x \
             below the paper's 100 GB)",
            100 * 1024 / mb
        ),
        &[
            "scheme",
            "updates/s",
            "updates",
            "migrations",
            "random_writes",
        ],
        &rows,
    );
    report.note(
        "paper shape: disk random writes ~68/s; in-place ~48/s; MaSM orders of magnitude\n\
         higher and linear in the flash size (3472/6631/12498 at 2/4/8 GB).\n\
         note: absolute MaSM rates scale with table size (migration cost ∝ table bytes);\n\
         the in-place rates are scale-free (bounded by disk IOPS, not table size).",
    );

    // NDJSON time series of the MaSM C run, one `TS:` line per sample.
    // Each row must parse back, carry the top-level `random_writes`
    // invariant field, and embed the full stats object.
    let mut max_random_writes = 0u64;
    for line in &ts_rows {
        let row = parse(line).expect("TS row parses as JSON");
        let rw = row
            .get_u64("random_writes")
            .expect("TS row carries random_writes");
        max_random_writes = max_random_writes.max(rw);
        assert!(row.get("stats").is_some(), "TS row embeds the snapshot");
    }
    report.series(ts_rows.iter().map(String::as_str));
    assert!(
        ts_rows.len() >= 3,
        "time series must have >= 3 rows, got {}",
        ts_rows.len()
    );
    let violations = end_stats.invariant_violations();
    assert!(
        violations.is_empty(),
        "incoherent end snapshot: {violations:?}"
    );
    // Design goal 2: run bodies write sequentially; space reuse allows
    // at most one head seek per run created (flushes + merge inputs).
    let runs_created = end_stats.ops.flush.count + end_stats.merge.inputs;
    assert!(
        max_random_writes <= runs_created,
        "random writes {max_random_writes} exceed runs created {runs_created}"
    );

    report
}
