//! Live metrics dashboard: drive a small MaSM workload and render the
//! unified [`masm_core::EngineStats`] snapshot as a text dashboard —
//! level gauges, per-operation latency percentiles, the SSD wear
//! summary, and the throughput deltas between two snapshots.
//!
//! This is the observability tour: every engine number printed here
//! comes from `MasmEngine::stats()` — one coherent snapshot, cheap
//! enough to poll from a driver loop, whose metric catalog is its
//! families' `FIELDS` plus the op histograms, and which renders as
//! OpenMetrics text in one walk. The flight recording of an installed
//! [`masm_telemetry::Tracer`] is summarized as the top-3 longest spans
//! per operation, checked by an [`masm_telemetry::InvariantWatchdog`],
//! and accounted for by `Tracer::stats()`.
//!
//! Run with: `cargo run --release --example metrics_dashboard`

use std::collections::BTreeMap;
use std::sync::Arc;

use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::{EngineStats, MasmConfig, MasmEngine};
use masm_pagestore::{HeapConfig, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice, StatKind};
use masm_telemetry::{InvariantWatchdog, RecordKind, TraceConfig, TraceRecord, Tracer, TrackId};

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        return 0.0;
    }
    num as f64 * 100.0 / den as f64
}

fn render(title: &str, stats: &EngineStats) {
    println!(
        "\n== {title} @ {:.3} virtual ms ==",
        stats.at_ns as f64 / 1e6
    );
    println!(
        "ingested   {} updates / {} bytes",
        stats.ingested_updates, stats.ingested_bytes
    );
    println!(
        "buffer     {} updates, {}/{} bytes ({:.0}% full)",
        stats.buffer.updates,
        stats.buffer.bytes,
        stats.buffer.capacity_bytes,
        pct(stats.buffer.bytes, stats.buffer.capacity_bytes)
    );
    println!(
        "runs       {} on SSD, {}/{} bytes cached ({:.0}% of flash)",
        stats.runs.count,
        stats.runs.cached_bytes,
        stats.runs.ssd_capacity_bytes,
        pct(stats.runs.cached_bytes, stats.runs.ssd_capacity_bytes)
    );
    println!(
        "cache      {} lookups, {:.0}% hit rate, {} data bytes resident",
        stats.cache.lookups(),
        stats.cache.hit_rate() * 100.0,
        stats.cache.data_bytes
    );
    println!(
        "ssd        {} seq + {} random writes, {} bytes written",
        stats.ssd.write_ops - stats.ssd.random_writes,
        stats.ssd.random_writes,
        stats.ssd.bytes_written
    );
    println!(
        "wear       max {} writes/block over {} blocks (mean {:.2}, cv {:.3})",
        stats.ssd_wear.max_writes_per_block,
        stats.ssd_wear.blocks_touched,
        stats.ssd_wear.mean_writes_per_block,
        stats.ssd_wear.cv
    );
    println!(
        "merge      {} input runs, fan-in {}, {} blocks moved / {} merged",
        stats.merge.inputs, stats.merge.fan_in, stats.merge.blocks_moved, stats.merge.blocks_merged
    );

    println!(
        "\n{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "op (v-ns)", "count", "p50", "p95", "p99", "max"
    );
    stats.ops.for_each(|name, _, h| {
        println!(
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
            name,
            h.count,
            h.p50(),
            h.p95(),
            h.p99(),
            h.max
        );
    });
}

fn main() {
    // One virtual clock; three devices (disk, update-cache SSD, WAL).
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());

    let schema = Schema::synthetic_100b();
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let engine = MasmEngine::new(
        heap,
        ssd,
        wal,
        schema.clone(),
        MasmConfig::small_for_tests(),
    )
    .expect("valid config");

    // Flight-record the whole run. Everything emitted below lands in
    // the tracer's one bounded queue; the summary at the end drains it.
    let tracer = Arc::new(Tracer::new(TraceConfig {
        ring_capacity: 1 << 18,
        ..TraceConfig::default()
    }));
    engine.install_tracer(Arc::clone(&tracer));

    let session = SessionHandle::fresh(clock.clone());
    engine
        .load_table(
            &session,
            (0..5_000u64).map(|i| Record::new(i * 2, schema.empty_payload())),
            1.0,
        )
        .expect("bulk load");

    // The metric catalog: every field of every snapshot family (each
    // describes itself through `FIELDS`), then the op histograms.
    println!("metric catalog:");
    let catalog = EngineStats::default();
    for (family, fields, _) in catalog.families() {
        for f in fields {
            let kind = match f.kind {
                StatKind::Counter => "counter",
                StatKind::Level => "level",
                StatKind::Peak => "peak",
            };
            let key = format!("{family}.{}", f.name);
            println!("  {key:<32} {kind:<9} [{:<10}] {}", f.unit.label(), f.help);
        }
    }
    catalog.ops.for_each(|op, help, _| {
        let key = format!("op.{op}");
        println!("  {key:<32} histogram [virtual-ns] {help}");
    });

    // Phase 1: a burst of online updates with point reads and a scan.
    for i in 0..2_000u64 {
        let key = (i * 37) % 9_999;
        engine
            .apply_update(
                &session,
                key,
                UpdateOp::Modify(vec![FieldPatch {
                    field: 0,
                    value: (i as u32).to_le_bytes().to_vec(),
                }]),
            )
            .unwrap();
        if i % 50 == 0 {
            engine.get(&session, key).unwrap();
        }
    }
    // Flush the buffer into an SSD run so the scan exercises the block
    // cache and the `block_fetch` histogram, then scan twice: the
    // second pass is served from the cache.
    engine.flush_buffer(&session).unwrap();
    for _ in 0..2 {
        let n = engine
            .begin_scan(session.clone(), 0, 2_000)
            .unwrap()
            .count();
        println!("scan of [0, 2000] merged {n} records with the cached updates");
    }

    let after_ingest = engine.stats();
    render("after ingest burst", &after_ingest);

    // Phase 2: migrate the cached updates back into the table in place.
    let report = engine.migrate(&session).unwrap();
    println!(
        "\nmigration: {} runs / {} updates folded into the heap",
        report.runs_migrated, report.updates_applied
    );

    let end = engine.stats();
    render("after migration", &end);

    // Deltas: what happened between the two snapshots, and at what rate.
    let d = end.delta(&after_ingest);
    println!(
        "\ndelta over the migration phase ({:.3} virtual ms):",
        d.elapsed_ns as f64 / 1e9 * 1e3
    );
    println!(
        "  ssd bandwidth   {:.1} MB/s written",
        d.ssd.bytes_written as f64 * 1e3 / d.elapsed_ns.max(1) as f64
    );
    println!(
        "  wal + ssd ops   {} writes",
        d.wal.write_ops + d.ssd.write_ops
    );
    println!("  migrate p50     {} virtual-ns", end.ops.migrate.p50());

    // The whole snapshot also exports as one JSON object (this is what
    // the NDJSON time series in the benches embeds per row).
    println!("\nstats JSON ({} bytes):", end.to_json().len());
    println!("{}", end.to_json());

    // The watchdog wraps the same invariant check and additionally
    // emits instant events + the `trace.violations` counter into the
    // flight recording, so a dashboard poll loop and the trace agree.
    let mut watchdog = InvariantWatchdog::new(
        Arc::clone(&tracer),
        TrackId {
            tid: masm_telemetry::current_tid(),
        },
        1_000_000,
    );
    let violations = watchdog.poll(&end);
    assert!(violations.is_empty(), "invariants violated: {violations:?}");

    // The snapshot renders as OpenMetrics text (what a scraper would
    // pull); show the shape without dumping all of it.
    let exposition = end.render_openmetrics();
    println!(
        "\nOpenMetrics exposition: {} lines, {} bytes; first lines:",
        exposition.lines().count(),
        exposition.len()
    );
    for line in exposition.lines().take(5) {
        println!("  {line}");
    }
    let ingest_count = format!("\nop_ingest_virtual_ns_count {}\n", end.ops.ingest.count);
    assert!(
        exposition.contains(&ingest_count),
        "one walk renders the histograms too"
    );

    // Drain the flight recording and show the top-3 longest spans per
    // operation — the causal view behind the percentile table above.
    let records = tracer.take_records();
    let mut by_name: BTreeMap<&str, Vec<&TraceRecord>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.kind == RecordKind::Span) {
        by_name.entry(r.name).or_default().push(r);
    }
    let trace = tracer.stats();
    println!(
        "\ntrace: {} records emitted, {} drained, {} dropped on overflow, \
         {} invariant violations",
        trace.emitted, trace.drained, trace.dropped, trace.violations
    );
    assert!(
        trace.consistent(),
        "emitted == retained + drained + dropped"
    );
    println!("top-3 longest spans per operation (virtual ns):");
    for (name, spans) in &mut by_name {
        spans.sort_by_key(|r| std::cmp::Reverse(r.dur_ns));
        let top: Vec<String> = spans
            .iter()
            .take(3)
            .map(|r| format!("{} @ {}", r.dur_ns, r.t_ns))
            .collect();
        println!("  {name:<20} {}", top.join(", "));
    }
    assert!(
        by_name.contains_key("flush") && by_name.contains_key("migrate"),
        "the workload must have traced a flush and a migration"
    );

    println!(
        "\nOK: coherent snapshot; {} random SSD writes across the whole run",
        end.ssd.random_writes
    );
}
