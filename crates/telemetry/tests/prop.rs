//! Property tests for the telemetry primitives: histogram invariants
//! over arbitrary sample streams, quantile monotonicity, the
//! delta/merge algebra of every statistics family (driven by
//! `StatFamily::FIELDS`, never by field names), and exact JSON
//! round-trips of [`StatsDelta`].

use proptest::prelude::*;

use masm_storage::{
    CacheStatsSnapshot, CompressionReport, IoStatsSnapshot, MergeReport, StatFamily,
};
use masm_telemetry::json::parse;
use masm_telemetry::{
    BufferStats, EngineStats, Histogram, HistogramSnapshot, RunSetStats, StatsDelta,
};

fn samples() -> impl Strategy<Value = Vec<u64>> {
    // Mix of small values, mid-range latencies, and extreme outliers so
    // every bucket region gets exercised.
    proptest::collection::vec(
        prop_oneof![
            Just(0u64),
            0u64..1024,
            1024u64..10_000_000,
            (u64::MAX - 1024)..u64::MAX,
        ],
        0..400,
    )
}

fn snapshot_of(vals: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h.snapshot()
}

/// A family whose field `i` is `vals[(salt + i) % vals.len()]`.
fn family_of<F: StatFamily>(vals: &[u64], salt: usize) -> F {
    let mut f = F::default();
    for i in 0..F::FIELDS.len() {
        f.set(i, vals[(salt + i) % vals.len()]);
    }
    f
}

/// A synthetic snapshot at `at` whose families are driven by the knobs
/// `c`.
fn stats_with(at: u64, c: &[u64]) -> EngineStats {
    let h = Histogram::new();
    for i in 0..(c[0].min(64)) {
        h.record(i * 13);
    }
    let mut s = EngineStats {
        at_ns: at,
        ingested_updates: c[0],
        ingested_bytes: c[0] * 100,
        buffer: family_of(c, 0),
        runs: family_of(c, 1),
        cache: family_of(c, 2),
        merge: family_of(c, 3),
        compression: family_of(c, 4),
        ssd: family_of(c, 5),
        wal: family_of(c, 6),
        ..EngineStats::default()
    };
    s.ops.ingest = h.snapshot();
    s
}

/// The algebra every family gets from its `FIELDS` kinds. `a` and `b`
/// are two sources; `grow_*` what each added by a later cut.
fn check_family_algebra<F: StatFamily + PartialEq + std::fmt::Debug>(
    a: &[u64],
    b: &[u64],
    grow_a: &[u64],
    grow_b: &[u64],
) -> Result<(), TestCaseError> {
    let later = |base: &[u64], grow: &[u64]| -> Vec<u64> {
        base.iter().zip(grow).map(|(x, g)| x + g).collect()
    };
    let (a0, b0): (F, F) = (family_of(a, 0), family_of(b, 0));
    let (a1, b1): (F, F) = (
        family_of(&later(a, grow_a), 0),
        family_of(&later(b, grow_b), 0),
    );
    prop_assert_eq!(a0.merge(&b0), b0.merge(&a0));
    prop_assert_eq!(a0.merge(&b0).merge(&a1), a0.merge(&b0.merge(&a1)));
    prop_assert_eq!(
        a1.merge(&b1).delta(&a0.merge(&b0)),
        a1.delta(&a0).merge(&b1.delta(&b0))
    );
    prop_assert_eq!(a1.delta(&F::default()), a1);
    Ok(())
}

proptest! {
    /// Core histogram accounting: count matches the number of recorded
    /// samples, the bucket array sums to count, sum/max match the raw
    /// stream, and the reported percentiles are ordered and bounded by
    /// max. This is the "histogram count == op count" invariant the
    /// engine relies on.
    #[test]
    fn histogram_accounting_matches_stream(vals in samples()) {
        let s = snapshot_of(&vals);
        prop_assert_eq!(s.count, vals.len() as u64);
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        prop_assert_eq!(s.sum, vals.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        prop_assert_eq!(s.max, vals.iter().copied().max().unwrap_or(0));
        prop_assert!(s.p50() <= s.p95());
        prop_assert!(s.p95() <= s.p99());
        prop_assert!(s.p99() <= s.max);
        if !vals.is_empty() {
            // p50 can never undershoot the smallest recorded value's
            // bucket floor; cheap sanity rather than exactness (log₂
            // buckets are lossy by design).
            prop_assert!(s.quantile(1.0) == s.max);
        }
    }

    /// Splitting a stream at any point and taking `later − earlier`
    /// gives exactly the histogram of the suffix (modulo `max`, which
    /// is a high-water mark carried from the newer snapshot).
    #[test]
    fn histogram_delta_is_suffix(vals in samples(), cut in 0usize..400) {
        let cut = cut.min(vals.len());
        let h = Histogram::new();
        for &v in &vals[..cut] {
            h.record(v);
        }
        let early = h.snapshot();
        for &v in &vals[cut..] {
            h.record(v);
        }
        let late = h.snapshot();
        let d = late.delta(&early);
        let suffix = snapshot_of(&vals[cut..]);
        prop_assert_eq!(d.count, suffix.count);
        prop_assert_eq!(d.sum, suffix.sum);
        prop_assert_eq!(d.buckets, suffix.buckets);
    }

    /// Merge is commutative and associative and commutes with delta,
    /// and a delta against zero is the identity — for all six
    /// families, by their declared field kinds alone.
    #[test]
    fn every_family_obeys_its_field_kinds(
        a in proptest::collection::vec(0u64..(1 << 40), 16),
        b in proptest::collection::vec(0u64..(1 << 40), 16),
        grow_a in proptest::collection::vec(0u64..(1 << 40), 16),
        grow_b in proptest::collection::vec(0u64..(1 << 40), 16),
    ) {
        check_family_algebra::<BufferStats>(&a, &b, &grow_a, &grow_b)?;
        check_family_algebra::<RunSetStats>(&a, &b, &grow_a, &grow_b)?;
        check_family_algebra::<CacheStatsSnapshot>(&a, &b, &grow_a, &grow_b)?;
        check_family_algebra::<MergeReport>(&a, &b, &grow_a, &grow_b)?;
        check_family_algebra::<CompressionReport>(&a, &b, &grow_a, &grow_b)?;
        check_family_algebra::<IoStatsSnapshot>(&a, &b, &grow_a, &grow_b)?;
    }

    /// JSON is exact with every field of every family set to a distinct
    /// value: `EngineStats::to_json` carries each field under its
    /// `FIELDS` name, and `StatsDelta` survives `to_json` → `parse` →
    /// `from_json` (all values stay below 2⁵³, as in practice).
    #[test]
    fn stats_json_is_exact_for_distinct_field_values(
        at in 1u64..(1 << 50),
        first in 1u64..(1 << 45),
        ops_counts in proptest::collection::vec(0u64..64, 6),
    ) {
        // 128 distinct values: more than any family has fields, and the
        // per-family salt shifts which field gets which.
        let distinct: Vec<u64> = (0..128).map(|i| first + i).collect();
        let mut now = stats_with(at, &distinct);
        let mut hists = ops_counts.iter().map(|&n| {
            let h = Histogram::new();
            for i in 0..n {
                h.record(i * 17);
            }
            h.snapshot()
        });
        now.ops.ingest = hists.next().unwrap();
        now.ops.get = hists.next().unwrap();
        now.ops.scan_next = hists.next().unwrap();
        now.ops.flush = hists.next().unwrap();
        now.ops.migrate = hists.next().unwrap();
        now.ops.block_fetch = hists.next().unwrap();

        let v = parse(&now.to_json()).expect("EngineStats JSON parses");
        for (family, fields, values) in now.families() {
            for (f, value) in fields.iter().zip(values) {
                let got = v.get(family).and_then(|o| o.get_u64(f.name));
                prop_assert_eq!(got, Some(value), "{}.{}", family, f.name);
            }
        }

        let d = now.delta(&EngineStats::default());
        let parsed = parse(&d.to_json()).expect("delta JSON parses");
        let back = StatsDelta::from_json(&parsed).expect("delta reconstructs");
        prop_assert_eq!(d, back);
    }
}
