//! Property tests for [`MasmEngine::stats`]: under arbitrary
//! interleavings of ingest, point lookups, merged scans, flushes,
//! compactions, and migrations, the unified snapshot stays coherent —
//! histogram counts equal operation counts, cache byte gauges add up,
//! deltas are monotone, and `StatsDelta` round-trips through JSON.
//!
//! [`MasmEngine::stats`]: masm_core::MasmEngine::stats

use proptest::prelude::*;

use masm_core::config::MasmConfig;
use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::{EngineStats, StatsDelta};
use masm_model::{op_strategy, Outcome, Table};
use masm_telemetry::json::parse;

fn assert_coherent(stats: &EngineStats) {
    let violations = stats.invariant_violations();
    assert!(violations.is_empty(), "incoherent snapshot: {violations:?}");
    // The paper's design goal 2: run bodies write sequentially. When
    // compaction/migration recycles SSD space, the head may seek once
    // per new run, so the bound is one random write per run created
    // (flushes + merge outputs), exactly as the engine's own tests
    // state it.
    let runs_created = stats.ops.flush.count + stats.merge.inputs;
    assert!(
        stats.ssd.random_writes <= runs_created,
        "random writes {} exceed runs created {runs_created}",
        stats.ssd.random_writes
    );
}

/// `(name, value)` of every sample line of an exposition.
fn samples(text: &str) -> Vec<(&str, u64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(name, v)| Some((name, v.parse().ok()?)))
        .collect()
}

/// Render `stats` and check that every field of every family appears
/// as exactly one sample carrying exactly the snapshot's value (nothing
/// is mirrored into a second store that could drift); the exposition.
fn exposition_of(stats: &EngineStats) -> String {
    let text = stats.render_openmetrics();
    let samples = samples(&text);
    let mut checked = 0;
    for (family, fields, values) in stats.families() {
        for (f, value) in fields.iter().zip(values) {
            let base = format!("{family}_{}", f.name);
            let found: Vec<u64> = samples
                .iter()
                .filter(|(name, _)| {
                    let name = name.strip_suffix("_total").unwrap_or(name);
                    name == base
                        || name.strip_suffix("_bytes") == Some(&base)
                        || name.strip_suffix("_virtual_ns") == Some(&base)
                })
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(found, vec![value], "sample for {family}.{}", f.name);
            checked += 1;
        }
    }
    assert_eq!(checked, 3 + 4 + 16 + 8 + 7 + 12 + 12, "every family walked");
    assert!(text.ends_with("# EOF\n"));
    text
}

/// The OpenMetrics export is the snapshot walked by `FIELDS`, after a
/// workload that hits the cache and merges runs, followed by the op
/// histograms.
#[test]
fn openmetrics_samples_equal_the_snapshot_fields() {
    let t = Table::new(MasmConfig::small_for_tests());
    t.load(300);
    for round in 0..3u64 {
        for key in 0..200u64 {
            let patch = FieldPatch {
                field: 0,
                value: (key as u32).to_le_bytes().to_vec(),
            };
            t.put(key * 3 + round, UpdateOp::Modify(vec![patch]))
                .unwrap();
        }
        t.flush().unwrap();
    }
    for _ in 0..2 {
        assert!(!t.rows(0, 400).is_empty());
    }
    t.compact().unwrap();
    t.get(7).unwrap();

    let stats = t.stats();
    assert!(stats.cache.hits > 0 && stats.cache.misses > 0, "{stats:?}");
    assert!(stats.merge.inputs > 0 && stats.compression.blocks > 0);
    let text = exposition_of(&stats);
    assert!(text.contains("cache_hits_total ") && text.contains("merge_fan_in "));
    assert!(text.contains("\nop_ingest_virtual_ns_count 600\n"));
    assert!(text.contains("\nruns_epoch_lag 0\n"));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Execute a random interleaving and check every stats invariant.
    #[test]
    fn stats_are_coherent_under_interleaving(
        ops in proptest::collection::vec(op_strategy(600), 1..60),
        mid_point in 0usize..60,
    ) {
        let mut t = Table::new(MasmConfig::small_for_tests());
        let mut model = t.load(300);
        let baseline = t.stats();
        prop_assert_eq!(baseline.ops.ingest.count, 0);

        let (mut ingests, mut gets, mut scanned, mut scan_ns, mut migrations) = (0, 0, 0, 0, 0);
        let mut mid: Option<EngineStats> = None;
        for (i, op) in ops.iter().enumerate() {
            match t.step(&mut model, op) {
                Outcome::Put(_) => ingests += 1,
                Outcome::Get(_) => gets += 1,
                Outcome::Scan { records, ns } => {
                    scanned += records;
                    scan_ns += ns;
                }
                Outcome::Migrate(report) => migrations += u64::from(report.runs_migrated > 0),
                _ => {}
            }
            if i == mid_point.min(ops.len() - 1) {
                mid = Some(t.stats());
            }
        }

        let end = t.stats();
        assert_coherent(&end);

        // Histogram counts equal operation counts.
        prop_assert_eq!(end.ops.ingest.count, ingests);
        prop_assert_eq!(end.ingested_updates, ingests);
        prop_assert_eq!(end.ops.get.count, gets);
        // ... also for scans dropped early, and the samples add up to
        // the session time the returned records took.
        prop_assert_eq!(end.ops.scan_next.count, scanned);
        prop_assert_eq!(end.ops.scan_next.sum, scan_ns);
        prop_assert_eq!(end.ops.migrate.count, migrations);
        // Every flush materialized a run; runs are only retired by
        // migration, never created any other way.
        prop_assert!(end.ops.flush.count >= end.runs.count);

        // Deltas against both baselines are monotone (u64 subtraction
        // would panic in debug on any regression) and JSON-stable.
        let mid = mid.unwrap_or(baseline);
        assert_coherent(&mid);
        for earlier in [&baseline, &mid] {
            let d = end.delta(earlier);
            prop_assert_eq!(
                d.ingested_updates,
                end.ingested_updates - earlier.ingested_updates
            );
            let back = StatsDelta::from_json(&parse(&d.to_json()).unwrap()).unwrap();
            prop_assert_eq!(d, back);
        }
        // The full snapshot serializes to parseable JSON with the
        // headline invariant field lifted to the top level.
        let json = parse(&end.to_json()).unwrap();
        prop_assert_eq!(json.get_u64("random_writes"), Some(end.ssd.random_writes));
    }
}
