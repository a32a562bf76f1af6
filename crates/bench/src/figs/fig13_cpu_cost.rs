//! Figure 13: range scan and MaSM performance while emulating the CPU
//! cost of query processing (0.5–2.5 µs per retrieved record, 10 GB
//! ranges in the paper — here a proportional slice of the scaled table).
//!
//! Paper result: execution time is flat until ≈1.5 µs/record (the scan
//! is I/O bound; CPU work overlaps the asynchronous I/O), then grows
//! linearly (CPU bound) — and MaSM is indistinguishable from the pure
//! scan at every point, because the merge CPU cost is negligible next to
//! either the I/O or the injected work.
//!
//! A second section sweeps the run codec (identity / delta / lz): scan
//! and merge (compaction) throughput per codec plus the achieved
//! compression ratio — the same CPU-vs-I/O axis, with the CPU spent on
//! decompression instead of injected work.

use masm_core::CodecChoice;
use masm_pagestore::Record;
use masm_storage::{Ns, SessionHandle};

use crate::{ratio, secs, Report, SyntheticEnv};

/// Virtual time a fresh session on `env` spends opening a scan with
/// `open` and draining it, charging `cpu_ns` of query processing for
/// each record as it arrives.
fn drain_with_cpu<I: Iterator<Item = Record>>(
    env: &SyntheticEnv,
    cpu_ns: Ns,
    open: impl FnOnce(SessionHandle) -> I,
) -> Ns {
    let session = env.machine.session();
    let start = session.now();
    for _ in open(session.clone()) {
        if cpu_ns > 0 {
            session.cpu(cpu_ns);
        }
    }
    session.now() - start
}

pub(crate) fn run(mb: u64) -> Report {
    // The paper scans 10 GB of its 100 GB table: use 1/10 of ours.
    let baseline = SyntheticEnv::new(mb);
    let masm = SyntheticEnv::with_config_mutator(mb, |cfg| {
        cfg.migration_threshold = 1.0;
    });
    masm.fill_cache(0.5, 42);

    // The paper scans 10 GB — long enough that per-batch CPU hides
    // behind the prefetched I/O. At our scale that means the full table.
    let begin = 0u64;
    let end = baseline.table.max_key();

    let mut rows = Vec::new();
    for tenth_us in [0u64, 5, 10, 15, 20, 25] {
        let cpu_ns = tenth_us * 100; // 0.0, 0.5, 1.0, 1.5, 2.0, 2.5 µs
        let pure = drain_with_cpu(&baseline, cpu_ns, |s| {
            baseline.engine.heap().scan_range(s, begin, end)
        });
        let with_masm = drain_with_cpu(&masm, cpu_ns, |s| {
            masm.engine.begin_scan(s, begin, end).expect("scan")
        });
        rows.push(vec![
            format!("{:.1}", cpu_ns as f64 / 1000.0),
            format!("{:.3}", secs(pure)),
            format!("{:.3}", secs(with_masm)),
            ratio(with_masm, pure),
        ]);
    }
    let mut report = Report::default();
    report.table(
        &format!("Figure 13 — injected CPU cost per record, full-table ranges ({mb} MiB)"),
        &["us/record", "scan w/o updates (s)", "MaSM (s)", "MaSM/pure"],
        &rows,
    );

    // --- Codec sweep: scan + merge throughput per codec --------------
    // Same cache fill (by *stored* bytes, so stronger codecs cache more
    // updates in the same flash budget), then one full merged scan and
    // one full compaction per codec.
    let mut codec_rows = Vec::new();
    for choice in CodecChoice::ALL {
        let env = SyntheticEnv::with_config_mutator(mb, |cfg| {
            cfg.codec = choice;
            cfg.migration_threshold = 1.0;
        });
        env.fill_cache(0.5, 42);
        let session = env.machine.session();
        let stats = env.engine.stats();
        let (comp, updates_cached) = (stats.compression, stats.ingested_updates);

        let t_scan = env.time_masm_scan(begin, end).max(1);
        let scan_mbps = env.table_bytes as f64 / 1e6 / secs(t_scan);

        let merge_start = session.now();
        let merge = env.engine.compact_runs(&session).expect("compact");
        let t_merge = (session.now() - merge_start).max(1);
        let merge_bytes = merge.bytes_moved + merge.bytes_decoded;
        let merge_mbps = merge_bytes as f64 / 1e6 / secs(t_merge);

        codec_rows.push(vec![
            choice.name().to_string(),
            comp.raw_bytes.to_string(),
            comp.stored_bytes.to_string(),
            format!("{:.3}", comp.ratio()),
            updates_cached.to_string(),
            format!("{scan_mbps:.1}"),
            format!("{merge_mbps:.1}"),
            merge.inputs.to_string(),
            merge.bytes_decoded.to_string(),
        ]);
    }
    report.table(
        &format!("Figure 13b — per-codec scan/merge throughput ({mb} MiB table, cache 50% full)"),
        &[
            "codec",
            "raw_bytes",
            "stored_bytes",
            "stored/raw",
            "updates",
            "scan MB/s",
            "merge MB/s",
            "merge_in",
            "dec_bytes",
        ],
        &codec_rows,
    );

    report.note(
        "paper shape: flat (I/O bound) until ~1.5us/record, then linear (CPU bound);\n\
         MaSM indistinguishable from the pure scan throughout. Codec sweep: delta/lz\n\
         shrink stored bytes (ratio < 1), buying more cached updates per flash byte\n\
         for decode CPU the async I/O mostly hides.",
    );
    report
}
