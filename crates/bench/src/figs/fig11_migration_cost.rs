//! Figure 11: cost of an in-place update migration relative to a pure
//! table scan — plus the zero-decode compaction experiment.
//!
//! Paper result: migrating a full 4 GB update cache while scanning the
//! table costs ≈2.3× a pure scan — the migration *is* a scan plus the
//! sequential write-back, so the factor sits a little above 2×. The
//! benefits (§4.2): updates to one page apply together, writes are
//! sequential not random, and main data is updated in place.
//!
//! The compaction section exercises the layered merge planner on two
//! workloads: *overlapping* (uniform random updates — every run covers
//! the whole key space, so nearly all blocks must be decoded and
//! merged) and *disjoint* (key-banded update batches — no two runs
//! overlap, so every block is relinked verbatim and `bytes_decoded`
//! stays 0, which the figure asserts).

use masm_storage::{MergeReport, MIB};

use crate::{ratio, secs, Report, SyntheticEnv, UpdateOp};

/// Runs in, and the compaction of them.
type Compaction = (usize, MergeReport);

/// Uniform random updates: runs overlap across the whole key space.
fn compaction_overlapping(mb: u64) -> Compaction {
    let env = SyntheticEnv::new(mb);
    env.fill_cache(0.8, 7);
    let session = env.machine.session();
    env.engine.flush_buffer(&session).expect("flush");
    let runs_in = env.engine.run_count();
    (runs_in, env.engine.compact_runs(&session).expect("compaction"))
}

/// Key-banded update batches: each run covers its own key band, so the
/// planner moves every block without decoding a byte.
fn compaction_disjoint(mb: u64) -> Compaction {
    let env = SyntheticEnv::new(mb);
    let session = env.machine.session();
    let bands = 6u64;
    let band_span = env.table.max_key() / bands;
    let payload = env.table.schema.empty_payload();
    // Stay well below the SSD capacity so every band flushes cleanly.
    let budget = env.engine.config().ssd_capacity * 7 / 10 / bands;
    'fill: for band in 0..bands {
        let band_start = env.engine.cached_bytes();
        let mut i = 0u64;
        while env.engine.cached_bytes() - band_start < budget || i < 64 {
            let key = band * band_span + (i * 37) % band_span.max(1);
            match env
                .engine
                .apply_update(&session, key, UpdateOp::Replace(payload.clone()))
            {
                Ok(_) => {}
                Err(masm_core::MasmError::CacheFull { .. }) => break 'fill,
                Err(e) => panic!("update failed: {e}"),
            }
            i += 1;
        }
        match env.engine.flush_buffer(&session) {
            Ok(()) | Err(masm_core::MasmError::CacheFull { .. }) => {}
            Err(e) => panic!("flush failed: {e}"),
        }
    }
    let runs_in = env.engine.run_count();
    (runs_in, env.engine.compact_runs(&session).expect("compaction"))
}

pub(crate) fn run(mb: u64) -> Report {
    // Pure full-table scan.
    let baseline = SyntheticEnv::new(mb);
    let scan_ns = baseline.time_pure_scan(0, u64::MAX);

    // Scan with migration of a full cache.
    let env = SyntheticEnv::with_config_mutator(mb, |cfg| {
        cfg.migration_threshold = 1.0;
    });
    env.fill_cache(0.95, 42);
    let session = env.machine.session();
    let start = session.now();
    let report = env.engine.migrate(&session).expect("migration");
    let mig_ns = session.now() - start;

    let mut out = Report::default();
    out.table(
        &format!("Figure 11 — migration vs pure scan (table {mb} MiB, cache ~95% full)"),
        &["configuration", "virtual time (s)", "normalized"],
        &[
            vec![
                "scan".into(),
                format!("{:.3}", secs(scan_ns)),
                "1.00x".into(),
            ],
            vec![
                "scan w/ migration".into(),
                format!("{:.3}", secs(mig_ns)),
                ratio(mig_ns, scan_ns),
            ],
        ],
    );
    out.note(&format!(
        "migrated {} runs, applied {} updates, wrote {} pages ({} MiB).\n\
         paper shape: scan w/ migration ≈ 2.3x a pure scan.",
        report.runs_migrated,
        report.updates_applied,
        report.pages_written,
        report.pages_written * 4096 / MIB,
    ));

    // --- Zero-decode compaction: overlapping vs disjoint runs --------
    let rows = [
        ("overlapping", compaction_overlapping(mb)),
        ("disjoint", compaction_disjoint(mb)),
    ];
    out.table(
        "Compaction — layered merge planner (move vs merge)",
        &[
            "workload",
            "runs_in",
            "fan_in",
            "blocks_moved",
            "blocks_merged",
            "bytes_moved",
            "bytes_decoded",
            "entries_out",
            "move_ratio",
        ],
        &rows
            .iter()
            .map(|(workload, (runs_in, r))| {
                vec![
                    workload.to_string(),
                    runs_in.to_string(),
                    r.fan_in.to_string(),
                    r.blocks_moved.to_string(),
                    r.blocks_merged.to_string(),
                    r.bytes_moved.to_string(),
                    r.bytes_decoded.to_string(),
                    r.entries_out.to_string(),
                    format!("{:.2}", r.move_ratio()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let (_, (_, disjoint)) = rows[1];
    assert_eq!(
        disjoint.bytes_decoded, 0,
        "disjoint-band compaction must decode nothing: {disjoint:?}"
    );
    out.note(
        "expected shape: disjoint bands move 100% of blocks (bytes_decoded == 0); \
         uniform updates decode nearly everything.",
    );
    out
}
