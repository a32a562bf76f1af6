//! [`EngineStats`] — the unified engine snapshot — and [`StatsDelta`],
//! the monotonic difference between two snapshots.
//!
//! One `MasmEngine::stats()` call returns everything the paper's
//! quantitative invariants need, composed from the statistics families
//! declared in [`masm_storage::stats`] (buffer, runs, cache, merge,
//! compression, device I/O, workers) plus the SSD wear summary and the
//! per-operation latency histograms. `StatsDelta = now − prev` makes
//! rates first-class. The JSON codec and the OpenMetrics rendering are
//! written once, over [`StatFamily::FIELDS`].

use std::fmt::Write as _;

use masm_storage::{
    BufferStats, CacheStatsSnapshot, CompressionReport, IoStatsSnapshot, MergeReport, RunSetStats,
    StatFamily, StatField, StatKind, Unit, WearStats, WorkerStats,
};

use crate::json::{JsonObj, JsonValue};
use crate::metrics::{bucket_upper_bound, HistogramSnapshot};

/// Count/sum delta of one latency family between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCountDelta {
    /// Operations in the interval (unit: ops).
    pub count: u64,
    /// Total latency in the interval (unit: virtual-ns).
    pub sum_ns: u64,
}

impl OpCountDelta {
    /// The histogram `sum` wraps mod 2⁶⁴ by its recording semantics, so
    /// the interval sum is the wrapping difference.
    fn between(earlier: &HistogramSnapshot, now: &HistogramSnapshot) -> Self {
        OpCountDelta {
            count: now.count - earlier.count,
            sum_ns: now.sum.wrapping_sub(earlier.sum),
        }
    }

    fn to_json(self) -> String {
        let mut o = JsonObj::new();
        o.u64("count", self.count).u64("sum_ns", self.sum_ns);
        o.finish()
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        Some(OpCountDelta {
            count: v.get_u64("count")?,
            sum_ns: v.get_u64("sum_ns")?,
        })
    }
}

/// Declare the public engine operations once: [`OpLatencies`] (one
/// histogram each) and [`OpCountDeltas`] (one interval delta each).
macro_rules! op_families {
    ($($op:ident = $help:literal),* $(,)?) => {
        /// Latency histograms for every public engine operation,
        /// recorded at the hot paths by [`crate::Timer`] guards. All
        /// samples are **virtual-ns**. Each field's doc line is also its
        /// OpenMetrics help.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OpLatencies {
            $(#[doc = $help] pub $op: HistogramSnapshot,)*
        }

        /// Per-operation count/sum deltas (fields mirror [`OpLatencies`]).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OpCountDeltas {
            $(#[doc = $help] pub $op: OpCountDelta,)*
        }

        impl OpLatencies {
            /// Visit each histogram with its stable family name and its
            /// one-line help.
            pub fn for_each(
                &self,
                mut f: impl FnMut(&'static str, &'static str, &HistogramSnapshot),
            ) {
                $(f(stringify!($op), $help, &self.$op);)*
            }

            fn delta(&self, earlier: &OpLatencies) -> OpCountDeltas {
                OpCountDeltas { $($op: OpCountDelta::between(&earlier.$op, &self.$op),)* }
            }
        }

        impl OpCountDeltas {
            fn to_json(self) -> String {
                let mut o = JsonObj::new();
                $(o.raw(stringify!($op), &self.$op.to_json());)*
                o.finish()
            }

            fn from_json(v: &JsonValue) -> Option<Self> {
                Some(OpCountDeltas {
                    $($op: OpCountDelta::from_json(v.get(stringify!($op))?)?,)*
                })
            }
        }
    };
}

op_families! {
    ingest = "one apply_update call, including any flush it triggered",
    get = "one point lookup",
    scan_next = "merged range scan: count = records returned, samples = per-batch stall",
    flush = "one buffer flush materializing a 1-pass run",
    migrate = "one full or partial migration",
    block_fetch = "one block obtained by a query run scan",
}

/// The unified engine snapshot. Counter fields are cumulative since
/// engine construction; levels (buffer, runs, cache bytes) are as of
/// `at_ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Virtual time of the snapshot (unit: virtual-ns).
    pub at_ns: u64,
    /// Updates ingested since construction (unit: ops).
    pub ingested_updates: u64,
    /// Logical bytes of ingested updates (unit: bytes).
    pub ingested_bytes: u64,
    /// In-memory update-buffer occupancy.
    pub buffer: BufferStats,
    /// Materialized-run set occupancy.
    pub runs: RunSetStats,
    /// Block-cache counters and byte levels.
    pub cache: CacheStatsSnapshot,
    /// Cumulative planned-merge totals.
    pub merge: MergeReport,
    /// Cumulative codec accounting.
    pub compression: CompressionReport,
    /// Update-cache SSD device I/O.
    pub ssd: IoStatsSnapshot,
    /// SSD erase-block wear summary (no raw histogram cloning).
    pub ssd_wear: WearStats,
    /// WAL device I/O.
    pub wal: IoStatsSnapshot,
    /// Background worker-pool occupancy and counters.
    pub workers: WorkerStats,
    /// Per-operation latency histograms (virtual-ns).
    pub ops: OpLatencies,
}

/// One [`StatFamily`] member of an [`EngineStats`]: its JSON key, its
/// field roster, and the field values in roster order.
pub(crate) type FamilyRow = (&'static str, &'static [StatField], Vec<u64>);

/// A family as a JSON object: one key per field, in declaration order,
/// then the `derived` ratios.
fn family_json<F: StatFamily>(f: &F, derived: &[(&str, f64)]) -> String {
    let mut o = JsonObj::new();
    for (i, field) in F::FIELDS.iter().enumerate() {
        o.u64(field.name, f.get(i));
    }
    for (key, v) in derived {
        o.f64(key, *v);
    }
    o.finish()
}

/// Inverse of [`family_json`] (derived keys are ignored); `None` on any
/// missing or mistyped field.
fn family_from_json<F: StatFamily>(v: &JsonValue) -> Option<F> {
    let mut out = F::default();
    for (i, field) in F::FIELDS.iter().enumerate() {
        out.set(i, v.get_u64(field.name)?);
    }
    Some(out)
}

/// Write the `# HELP` / `# TYPE` lines of metric `base` and return its
/// exposition name: `base` plus its unit suffix (`_bytes`,
/// `_virtual_ns`; `ops` adds none) unless it already ends in it.
fn write_header(out: &mut String, base: &str, unit: Unit, help: &str, kind: &str) -> String {
    let suffix = match unit {
        Unit::Ops => "",
        Unit::Bytes => "_bytes",
        Unit::VirtualNs => "_virtual_ns",
    };
    let mut name = base.to_string();
    if !name.ends_with(suffix) {
        name.push_str(suffix);
    }
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    name
}

fn hist_json(h: &HistogramSnapshot) -> String {
    let mut o = JsonObj::new();
    o.u64("count", h.count)
        .u64("sum", h.sum)
        .u64("max", h.max)
        .u64("p50", h.p50())
        .u64("p95", h.p95())
        .u64("p99", h.p99())
        .f64("mean", h.mean());
    o.finish()
}

impl EngineStats {
    /// One compact JSON object with every family nested under a stable
    /// key: `ingested`, `buffer`, `runs`, `cache`, `merge`,
    /// `compression`, `ssd`, `ssd_wear`, `wal`, `workers`, and `ops`
    /// (six latency histograms). `random_writes` is additionally lifted
    /// to the top level so the paper's zero-random-write invariant is
    /// greppable in every NDJSON row.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut ops = JsonObj::new();
        self.ops.for_each(|name, _, h| {
            ops.raw(name, &hist_json(h));
        });
        let mut ingested = JsonObj::new();
        ingested
            .u64("updates", self.ingested_updates)
            .u64("bytes", self.ingested_bytes);
        let mut wear = JsonObj::new();
        wear.u64("max_writes_per_block", self.ssd_wear.max_writes_per_block)
            .f64("mean_writes_per_block", self.ssd_wear.mean_writes_per_block)
            .u64("blocks_touched", self.ssd_wear.blocks_touched)
            .f64("cv", self.ssd_wear.cv);
        let mut o = JsonObj::new();
        o.u64("at_ns", self.at_ns)
            .u64("random_writes", self.ssd.random_writes)
            .raw("ingested", &ingested.finish())
            .raw("buffer", &family_json(&self.buffer, &[]))
            .raw("runs", &family_json(&self.runs, &[]))
            .raw(
                "cache",
                &family_json(&self.cache, &[("hit_rate", self.cache.hit_rate())]),
            )
            .raw("merge", &family_json(&self.merge, &[]))
            .raw(
                "compression",
                &family_json(&self.compression, &[("ratio", self.compression.ratio())]),
            )
            .raw("ssd", &family_json(&self.ssd, &[]))
            .raw("ssd_wear", &wear.finish())
            .raw("wal", &family_json(&self.wal, &[]))
            .raw("workers", &family_json(&self.workers, &[]))
            .raw("ops", &ops.finish());
        o.finish()
    }

    /// Every [`StatFamily`] member as `(JSON key, field roster, values)`
    /// — how exporters, docs and tests walk the whole snapshot without
    /// naming a field.
    #[must_use]
    pub fn families(&self) -> Vec<FamilyRow> {
        fn row<F: StatFamily>(key: &'static str, f: &F) -> FamilyRow {
            let values = (0..F::FIELDS.len()).map(|i| f.get(i)).collect();
            (key, F::FIELDS, values)
        }
        vec![
            row("buffer", &self.buffer),
            row("runs", &self.runs),
            row("cache", &self.cache),
            row("merge", &self.merge),
            row("compression", &self.compression),
            row("ssd", &self.ssd),
            row("wal", &self.wal),
            row("workers", &self.workers),
        ]
    }

    /// OpenMetrics text exposition of the whole engine, in one walk:
    /// every family of [`EngineStats::families`] as `<family>_<field>`
    /// samples (counters as counters with the conventional `_total`
    /// sample suffix, levels and peaks as gauges), then the six
    /// `op_<name>_virtual_ns` histograms as cumulative
    /// `_bucket{le="…"}` series over the log₂ buckets (inclusive upper
    /// bounds, trailing empty buckets elided) plus `_sum` / `_count`,
    /// then `# EOF`. Deterministic for a given snapshot.
    #[must_use]
    pub fn render_openmetrics(&self) -> String {
        let mut out = String::new();
        for (family, fields, values) in self.families() {
            for (field, v) in fields.iter().zip(values) {
                let base = format!("{family}_{}", field.name);
                let (kind, sample) = match field.kind {
                    StatKind::Counter => ("counter", "_total"),
                    StatKind::Level | StatKind::Peak => ("gauge", ""),
                };
                let name = write_header(&mut out, &base, field.unit, field.help, kind);
                let _ = writeln!(out, "{name}{sample} {v}");
            }
        }
        self.ops.for_each(|op, help, h| {
            let base = format!("op_{op}");
            let name = write_header(&mut out, &base, Unit::VirtualNs, help, "histogram");
            let top = h.buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate().take(top) {
                cumulative += n;
                let le = bucket_upper_bound(i);
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        });
        out.push_str("# EOF\n");
        out
    }

    /// Monotonic difference `self − earlier`. Counters subtract; the
    /// levels and peaks inside each family are carried from `self`; the
    /// pure-level families (buffer, runs) are *not* carried into the
    /// delta — read them off the newer snapshot.
    ///
    /// Panics (in debug builds) if `earlier` is actually newer: every
    /// cumulative counter must be monotone non-decreasing between two
    /// snapshots of the same engine.
    #[must_use]
    pub fn delta(&self, earlier: &EngineStats) -> StatsDelta {
        StatsDelta {
            elapsed_ns: self.at_ns - earlier.at_ns,
            ingested_updates: self.ingested_updates - earlier.ingested_updates,
            ingested_bytes: self.ingested_bytes - earlier.ingested_bytes,
            cache: self.cache.delta(&earlier.cache),
            merge: self.merge.delta(&earlier.merge),
            compression: self.compression.delta(&earlier.compression),
            ssd: self.ssd.delta(&earlier.ssd),
            wal: self.wal.delta(&earlier.wal),
            workers: self.workers.delta(&earlier.workers),
            ops: self.ops.delta(&earlier.ops),
        }
    }

    /// Internal-consistency checks shared by tests and benches. Returns
    /// human-readable violations; empty means the snapshot is coherent.
    #[must_use]
    pub fn invariant_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.cache.data_bytes != self.cache.probation_bytes + self.cache.protected_bytes {
            v.push(format!(
                "cache.data_bytes {} != probation {} + protected {}",
                self.cache.data_bytes, self.cache.probation_bytes, self.cache.protected_bytes
            ));
        }
        self.ops.for_each(|name, _, h| {
            if h.buckets.iter().sum::<u64>() != h.count {
                v.push(format!("ops.{name}: bucket sum != count {}", h.count));
            }
            if h.count > 0 && h.p50() > h.max {
                v.push(format!("ops.{name}: p50 {} > max {}", h.p50(), h.max));
            }
        });
        if self.buffer.bytes > 0 && self.buffer.updates == 0 {
            v.push("buffer.bytes > 0 with zero buffered updates".into());
        }
        v
    }
}

/// The monotonic difference between two [`EngineStats`] snapshots of
/// one engine: every counter is "what happened in the interval" (levels
/// and peaks inside a family are carried from the newer snapshot), so
/// rates are first-class.
/// Serializes to one JSON object and parses back exactly
/// ([`StatsDelta::from_json`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsDelta {
    /// Interval length (unit: virtual-ns).
    pub elapsed_ns: u64,
    /// Updates ingested in the interval (unit: ops).
    pub ingested_updates: u64,
    /// Logical update bytes ingested (unit: bytes).
    pub ingested_bytes: u64,
    /// Cache deltas.
    pub cache: CacheStatsSnapshot,
    /// Merge deltas.
    pub merge: MergeReport,
    /// Compression deltas.
    pub compression: CompressionReport,
    /// SSD I/O deltas.
    pub ssd: IoStatsSnapshot,
    /// WAL I/O deltas.
    pub wal: IoStatsSnapshot,
    /// Worker-pool deltas.
    pub workers: WorkerStats,
    /// Per-operation count/latency-sum deltas.
    pub ops: OpCountDeltas,
}

impl StatsDelta {
    /// Update ingest rate over the interval (unit: ops per *virtual*
    /// second; 0 when the interval is empty).
    #[must_use]
    pub(crate) fn updates_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.ingested_updates as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// One compact JSON object; [`StatsDelta::from_json`] inverts it.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("elapsed_ns", self.elapsed_ns)
            .u64("ingested_updates", self.ingested_updates)
            .u64("ingested_bytes", self.ingested_bytes)
            .f64("updates_per_sec", self.updates_per_sec())
            .raw(
                "cache",
                &family_json(&self.cache, &[("hit_rate", self.cache.hit_rate())]),
            )
            .raw("merge", &family_json(&self.merge, &[]))
            .raw(
                "compression",
                &family_json(&self.compression, &[("ratio", self.compression.ratio())]),
            )
            .raw("ssd", &family_json(&self.ssd, &[]))
            .raw("wal", &family_json(&self.wal, &[]))
            .raw("workers", &family_json(&self.workers, &[]))
            .raw("ops", &self.ops.to_json());
        o.finish()
    }

    /// Parse a value produced by [`StatsDelta::to_json`]. Returns
    /// `None` on any missing or mistyped field.
    #[must_use]
    pub fn from_json(v: &JsonValue) -> Option<StatsDelta> {
        Some(StatsDelta {
            elapsed_ns: v.get_u64("elapsed_ns")?,
            ingested_updates: v.get_u64("ingested_updates")?,
            ingested_bytes: v.get_u64("ingested_bytes")?,
            cache: family_from_json(v.get("cache")?)?,
            merge: family_from_json(v.get("merge")?)?,
            compression: family_from_json(v.get("compression")?)?,
            ssd: family_from_json(v.get("ssd")?)?,
            wal: family_from_json(v.get("wal")?)?,
            workers: family_from_json(v.get("workers")?)?,
            ops: OpCountDeltas::from_json(v.get("ops")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::metrics::Histogram;

    /// A coherent snapshot that grows with `scale`: every family field
    /// is `scale × (its index + 1)` except the cache's data-byte split,
    /// which must add up.
    fn sample_stats(scale: u64) -> EngineStats {
        fn fill<F: StatFamily>(scale: u64) -> F {
            let mut f = F::default();
            for i in 0..F::FIELDS.len() {
                f.set(i, scale * (i as u64 + 1));
            }
            f
        }
        let h = Histogram::new();
        for i in 0..scale {
            h.record(i * 100);
        }
        let hist = h.snapshot();
        let mut s = EngineStats {
            at_ns: 1_000_000 * scale,
            ingested_updates: 10 * scale,
            ingested_bytes: 1000 * scale,
            buffer: fill(scale),
            runs: fill(scale),
            cache: fill(scale),
            merge: fill(scale),
            compression: fill(scale),
            ssd: fill(scale),
            ssd_wear: WearStats {
                max_writes_per_block: 3,
                mean_writes_per_block: 1.5,
                blocks_touched: 4,
                cv: 0.3,
            },
            wal: fill(scale),
            workers: fill(scale),
            ops: OpLatencies::default(),
        };
        s.cache.data_bytes = s.cache.probation_bytes + s.cache.protected_bytes;
        s.ops = OpLatencies {
            ingest: hist,
            get: hist,
            ..s.ops
        };
        s
    }

    #[test]
    fn engine_stats_json_has_all_families() {
        let s = sample_stats(2);
        let v = parse(&s.to_json()).expect("EngineStats JSON parses");
        for (family, fields, values) in s.families() {
            let obj = v.get(family).unwrap_or_else(|| panic!("missing {family}"));
            for (f, value) in fields.iter().zip(values) {
                assert_eq!(obj.get_u64(f.name), Some(value), "{family}.{}", f.name);
            }
        }
        for family in ["ingested", "ssd_wear"] {
            assert!(v.get(family).is_some(), "missing family {family}");
        }
        assert_eq!(v.get_u64("random_writes"), Some(s.ssd.random_writes));
        let ops = v.get("ops").unwrap();
        s.ops.for_each(|op, _, _| {
            let h = ops.get(op).unwrap_or_else(|| panic!("missing op {op}"));
            assert!(h.get_u64("p99").is_some());
        });
    }

    #[test]
    fn invariants_hold_on_coherent_snapshot() {
        assert!(sample_stats(3).invariant_violations().is_empty());
        let mut broken = sample_stats(3);
        broken.cache.data_bytes += 1;
        assert_eq!(broken.invariant_violations().len(), 1);
    }

    #[test]
    fn delta_is_monotone_and_rates_work() {
        let a = sample_stats(1);
        let b = sample_stats(3);
        let d = b.delta(&a);
        assert_eq!(d.ingested_updates, 20);
        assert_eq!(d.elapsed_ns, 2_000_000);
        assert!((d.updates_per_sec() - 10_000.0).abs() < 1e-6);
        assert_eq!(d.ops.ingest.count, 2);
    }

    /// The latency `sum` wraps mod 2⁶⁴ by design; a delta across the
    /// wrap must not panic and must still be the interval's sum.
    #[test]
    fn delta_survives_a_wrapped_latency_sum() {
        let mut earlier = EngineStats::default();
        earlier.ops.get.count = 1;
        earlier.ops.get.sum = u64::MAX - 5;
        let mut now = earlier;
        now.ops.get.count = 2;
        now.ops.get.sum = earlier.ops.get.sum.wrapping_add(20);
        let d = now.delta(&earlier);
        assert_eq!((d.ops.get.count, d.ops.get.sum_ns), (1, 20));
    }
}
