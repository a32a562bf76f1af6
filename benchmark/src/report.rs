//! The metric catalogue (names and units, mirrored in `BENCHMARK.json`
//! and checked against it by the crate's tests) and the result line.

use masm_telemetry::json::JsonObj;

use crate::harness::Tally;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// Computed from the simulated device clock or from counters alone:
    /// bit-identical between two runs with one seed.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        exact: true,
    }
}

/// What a user of the system would see. Every workload reports all.
pub const END_TO_END: [Decl; 14] = [
    wall("setup_s", "s"),
    wall("rss_peak_mb", "MB"),
    wall("scan_wall_ns_per_rec", "ns"),
    wall("range_wall_us", "us"),
    wall("get_wall_us", "us"),
    wall("ingest_wall_ns_per_upd", "ns"),
    wall("migrate_wall_ns_per_rec", "ns"),
    exact("scan_sim_slowdown", "ratio"),
    exact("range_sim_slowdown", "ratio"),
    exact("range_sim_tail10_us", "us"),
    exact("sustained_sim_kupd_per_s", "kupd/s"),
    exact("flash_writes_per_update", "ratio"),
    exact("migrate_sim_x_scan", "ratio"),
    exact("recover_sim_ms", "ms"),
];

/// Single layers, from the traced run.
pub const PER_LAYER: [Decl; 58] = [
    wall("codec.delta.decode_ns_per_byte", "ns"),
    wall("codec.delta.encode_ns_per_byte", "ns"),
    wall("codec.lz.decode_ns_per_byte", "ns"),
    wall("codec.lz.encode_ns_per_byte", "ns"),
    exact("codec.stored_over_raw", "ratio"),
    wall("blockrun.block.decode_ns_per_entry", "ns"),
    wall("blockrun.block.encode_ns_per_entry", "ns"),
    wall("blockrun.builder.ns_per_entry", "ns"),
    wall("blockrun.scan.ns_per_entry", "ns"),
    wall("blockrun.bloom.probe_ns", "ns"),
    exact("blockrun.bloom.fpr", "ratio"),
    wall("blockrun.cache.hit_ns", "ns"),
    wall("blockrun.cache.miss_insert_ns", "ns"),
    exact("blockrun.cache.hit_rate", "ratio"),
    exact("blockrun.cache.evictions_per_scan", "count"),
    exact("blockrun.plan.moved_block_share", "ratio"),
    wall("pagestore.heap.scan_ns_per_rec", "ns"),
    wall("pagestore.page.decode_ns_per_rec", "ns"),
    wall("pagestore.heap.bulk_load_ns_per_rec", "ns"),
    wall("pagestore.heap.rewrite_ns_per_rec", "ns"),
    wall("core.membuf.push_ns_per_upd", "ns"),
    wall("core.membuf.drain_sorted_ns_per_upd", "ns"),
    wall("core.wal.append_ns_per_rec", "ns"),
    exact("core.wal.bytes_per_update", "bytes"),
    wall("core.wal.replay_ns_per_rec", "ns"),
    wall("core.run.write_run_ns_per_upd", "ns"),
    wall("core.run.scan_ns_per_upd", "ns"),
    wall("core.merge.kway_ns_per_upd.f2", "ns"),
    wall("core.merge.kway_ns_per_upd.f8", "ns"),
    wall("core.merge.kway_ns_per_upd.f32", "ns"),
    wall("core.merge.updates_ns_per_upd", "ns"),
    wall("core.merge.data_updates_ns_per_rec", "ns"),
    wall("core.merge.compact_ns_per_upd", "ns"),
    wall("core.engine.scan_setup_us", "us"),
    wall("core.engine.recover_wall_ns_per_wal_rec", "ns"),
    exact("core.engine.runs_at_read_state", "count"),
    exact("core.engine.two_pass_merges_per_cycle", "count"),
    wall("storage.sim.read_ns_per_kib", "ns"),
    wall("storage.sim.write_ns_per_kib", "ns"),
    exact("storage.ssd.random_writes", "count"),
    exact("storage.ssd.bytes_written_per_cycle", "bytes"),
    exact("storage.ssd.bytes_read_per_full_scan", "bytes"),
    exact("storage.ssd.reads_per_range_scan", "count"),
    exact("storage.disk.bytes_read_per_full_scan", "bytes"),
    exact("alloc.count_per_kupd_ingest", "count"),
    exact("alloc.count_per_krec_scan", "count"),
    exact("alloc.bytes_per_rec_scan", "bytes"),
    exact("alloc.count_per_get", "count"),
    wall("scan.attributed_pct", "%"),
    wall("bench.trace_overhead_pct", "%"),
    wall("env.prefault_ms", "ms"),
    wall("env.runq_wait_ms", "ms"),
    wall("env.calib_spread_pct", "%"),
    wall("scan_wall_ns_per_rec.in_run_spread_pct", "%"),
    wall("range_wall_us.in_run_spread_pct", "%"),
    wall("get_wall_us.in_run_spread_pct", "%"),
    wall("ingest_wall_ns_per_upd.in_run_spread_pct", "%"),
    wall("migrate_wall_ns_per_rec.in_run_spread_pct", "%"),
];

/// A measured value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub decl: Decl,
    pub value: f64,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub tally: Tally,
    /// The end-to-end set (untraced run) or the per-layer set (traced).
    pub metrics: Vec<Metric>,
    /// The traced run's spans as Chrome trace-event JSON.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// Every check passed and every number is finite.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Look a metric up by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.decl.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result. Values are printed with every digit
    /// `f64` carries (shortest representation that reads back exactly).
    pub fn to_json(&self) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            let mut one = JsonObj::new();
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            one.raw("value", &format!("{value}"))
                .str("unit", m.decl.unit);
            metrics.raw(m.decl.name, &one.finish());
        }
        let mut line = JsonObj::new();
        line.raw("correct", if self.correct() { "true" } else { "false" })
            .u64("attempted", self.tally.attempted.max(1))
            .u64("failed", self.tally.failed)
            .raw("metrics", &metrics.finish());
        line.finish()
    }
}

/// Pair measured values with their declarations, in catalogue order.
/// Panics if a declared metric was not measured or an undeclared one
/// was: the catalogue and the code must agree.
pub fn bind(catalogue: &[Decl], mut measured: Vec<(&'static str, f64)>) -> Vec<Metric> {
    let out = catalogue
        .iter()
        .map(|&decl| {
            let at = measured
                .iter()
                .position(|(name, _)| *name == decl.name)
                .unwrap_or_else(|| panic!("metric {} declared but not measured", decl.name));
            Metric {
                decl,
                value: measured.swap_remove(at).1,
            }
        })
        .collect();
    assert!(
        measured.is_empty(),
        "measured but not declared: {measured:?}"
    );
    out
}
