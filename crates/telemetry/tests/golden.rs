//! Byte-exact goldens of the two stats serializers. The strings under
//! `tests/golden/` were captured from the hand-written per-family
//! serializers (commit 45ed28d) over the value built below; the
//! `FIELDS`-driven serializer must reproduce them — key order, derived
//! `hit_rate` / `ratio` / `updates_per_sec`, top-level `random_writes`.

use masm_storage::{StatFamily, WearStats};
use masm_telemetry::{EngineStats, Histogram, HistogramSnapshot};

/// Field `i` of the family with base `b` is `(b + i + 1) × scale`.
fn family<F: StatFamily>(base: u64, scale: u64) -> F {
    let mut f = F::default();
    for i in 0..F::FIELDS.len() {
        f.set(i, (base + i as u64 + 1) * scale);
    }
    f
}

fn hist(k: u64, scale: u64) -> HistogramSnapshot {
    let h = Histogram::new();
    for _ in 0..scale {
        for v in [k + 1, 10 * (k + 1), 1000 * (k + 1)] {
            h.record(v);
        }
    }
    h.snapshot()
}

fn sample(scale: u64) -> EngineStats {
    let mut s = EngineStats {
        at_ns: 9_000_000 * scale,
        ingested_updates: 1001 * scale,
        ingested_bytes: 1002 * scale,
        buffer: family(1100, scale),
        runs: family(1200, scale),
        cache: family(1300, scale),
        merge: family(1400, scale),
        compression: family(1500, scale),
        ssd: family(1600, scale),
        ssd_wear: WearStats {
            max_writes_per_block: 7,
            mean_writes_per_block: 2.5,
            blocks_touched: 11,
            cv: 0.25,
        },
        wal: family(1700, scale),
        ..EngineStats::default()
    };
    s.ops.ingest = hist(0, scale);
    s.ops.get = hist(1, scale);
    s.ops.scan_next = hist(2, scale);
    s.ops.flush = hist(3, scale);
    s.ops.migrate = hist(4, scale);
    s.ops.block_fetch = hist(5, scale);
    s
}

#[test]
fn engine_stats_json_matches_golden() {
    let golden = include_str!("golden/engine_stats.json");
    assert_eq!(sample(3).to_json(), golden.trim_end());
}

#[test]
fn stats_delta_json_matches_golden() {
    let golden = include_str!("golden/stats_delta.json");
    assert_eq!(sample(3).delta(&sample(1)).to_json(), golden.trim_end());
}

/// README "Metric catalog": one generated row prefix per family —
/// JSON key(s), every field in `FIELDS` order (counters unmarked,
/// levels and peaks marked), units — followed by free prose. On a
/// mismatch the panic message lists the rows to paste.
#[test]
fn readme_metric_catalog_matches_fields() {
    use masm_storage::{StatField, StatKind};
    let readme = include_str!("../../../README.md");
    let mut families: Vec<(Vec<&str>, &[StatField])> = Vec::new();
    for (key, fields, _) in EngineStats::default().families() {
        match families.iter_mut().find(|(_, f)| *f == fields) {
            Some((keys, _)) => keys.push(key),
            None => families.push((vec![key], fields)),
        }
    }
    assert_eq!(families.len(), 6, "ssd and wal share one roster");
    let mut missing = String::new();
    for (keys, fields) in families {
        let keys: Vec<String> = keys.iter().map(|k| format!("`{k}`")).collect();
        let names: Vec<String> = fields
            .iter()
            .map(|f| match f.kind {
                StatKind::Counter => format!("`{}`", f.name),
                StatKind::Level => format!("`{}` (level)", f.name),
                StatKind::Peak => format!("`{}` (peak)", f.name),
            })
            .collect();
        let mut units: Vec<&str> = Vec::new();
        for f in fields {
            if !units.contains(&f.unit.label()) {
                units.push(f.unit.label());
            }
        }
        let row = format!(
            "| {} | {} | {} |",
            keys.join(" / "),
            names.join(", "),
            units.join(", ")
        );
        if !readme.contains(&row) {
            missing += &format!("{row}\n");
        }
    }
    assert!(
        missing.is_empty(),
        "README metric catalog lacks:\n{missing}"
    );
}
