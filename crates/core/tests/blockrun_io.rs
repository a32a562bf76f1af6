//! Storage-level acceptance tests of the block-run subsystem as used by
//! the engine: the paper's `random_writes == 0` invariant, loud
//! checksum failures on corruption, zero-SSD-read warm-cache scans, and
//! the codec stage's on-disk savings on the synthetic update workload.

use std::sync::Arc;

use masm_blockrun::{BloomFilter, Entry, RunBuilder};
use masm_core::config::{CodecChoice, MasmConfig};
use masm_core::run::{lookup_in_run, write_built, write_run, RunScan, SortedRun};
use masm_core::update::{FieldPatch, UpdateOp, UpdateRecord};
use masm_core::MasmError;
use masm_model::{flash, payload, Table};
use masm_pagestore::Key;

/// A standalone table of `rows` rows.
fn table(cfg: MasmConfig, rows: u64) -> Table {
    let t = Table::new(cfg);
    t.load(rows);
    t
}

/// §4.1-style synthetic update stream over a 100-byte-record table
/// (uniform keys; insert/delete/modify mix), sorted for run
/// materialization. Deterministic (SplitMix64), no dependency on the
/// workloads crate (which sits above this one).
fn synthetic_updates(n: u64) -> Vec<UpdateRecord> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let n_slots = 50_000u64;
    let mut updates: Vec<UpdateRecord> = (1..=n)
        .map(|ts| {
            let slot = rnd() % n_slots;
            match rnd() % 3 {
                0 => UpdateRecord::new(ts, slot * 2 + 1, UpdateOp::Insert(payload(rnd() as u32))),
                1 => UpdateRecord::new(ts, slot * 2, UpdateOp::Delete),
                _ => UpdateRecord::new(
                    ts,
                    slot * 2,
                    UpdateOp::Modify(vec![FieldPatch {
                        field: 0,
                        value: (rnd() as u32).to_le_bytes().to_vec(),
                    }]),
                ),
            }
        })
        .collect();
    updates.sort_by_key(|u| (u.key, u.ts));
    updates
}

/// Design goal 2, strictly: writing block runs and migrating them back
/// into the main data issues **zero** random writes on the update-cache
/// SSD. (The engine primes the device head at offset 0, so even
/// the first run write counts as a sequential continuation.)
#[test]
fn block_run_writes_and_migration_issue_zero_random_ssd_writes() {
    let t = table(MasmConfig::small_for_tests(), 500);
    let ssd = &t.dev.ssds[0];
    ssd.reset_stats();
    for i in 0..4000u64 {
        t.put(i * 2 + 1, UpdateOp::Insert(payload(i as u32)))
            .unwrap();
    }
    assert!(t.engine().run_count() > 1, "several runs materialized");
    let report = t.migrate().unwrap()[0];
    assert!(report.runs_migrated > 1);

    let stats = ssd.stats();
    assert!(stats.write_ops > 10, "{stats:?}");
    assert_eq!(stats.random_writes, 0, "{stats:?}");
}

/// A corrupted block fails the CRC check and surfaces as a checksum
/// error — never as silently wrong update records.
#[test]
fn corrupted_block_read_fails_with_checksum_error() {
    let (ssd, session) = flash();
    let cfg = MasmConfig::small_for_tests();
    let updates: Vec<UpdateRecord> = (0..2000u64)
        .map(|i| UpdateRecord::new(i + 1, i * 2, UpdateOp::Replace(payload(i as u32))))
        .collect();
    let run = write_run(&session, &ssd, &cfg, 1, 0, 1, &updates).unwrap();
    assert!(run.meta.zones.len() > 2, "{} blocks", run.meta.zones.len());

    // Flip one byte inside the second data block.
    let zone = run.meta.zones[1];
    let (orig, _) = ssd.read_at(0, zone.offset + 7, 1).unwrap();
    ssd.write_at(0, zone.offset + 7, &[orig[0] ^ 0x40]).unwrap();

    // Point lookup through the corrupted block: checksum error.
    let probe = zone.min_key;
    let hashes = BloomFilter::hashes_of(probe);
    let err = lookup_in_run(&session, &ssd, &run, None, probe, hashes, |_| ()).unwrap_err();
    assert!(
        matches!(err, MasmError::BlockRun(_)),
        "expected checksum failure, got {err}"
    );
    assert!(err.to_string().contains("checksum"), "{err}");

    // A streaming scan refuses to continue past the corruption (it
    // panics rather than yielding garbage).
    let run = Arc::new(run);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        RunScan::with_cache(
            ssd.clone(),
            session.clone(),
            Arc::clone(&run),
            None,
            0,
            u64::MAX,
        )
        .count()
    }));
    assert!(
        result.is_err(),
        "scan across corrupted block must not succeed"
    );
}

/// Run bytes come off a device. An entry whose checksum holds but whose
/// value no update decodes from — an operation tag nobody wrote — is a
/// typed error on the point path, not a panic, and the run's other
/// keys still answer.
#[test]
fn undecodable_run_entry_is_a_typed_error_on_the_point_path() {
    let (ssd, session) = flash();
    let cfg = MasmConfig::small_for_tests();

    let good = UpdateRecord::new(1, 10, UpdateOp::Replace(payload(7)));
    let mut builder = RunBuilder::new(cfg.blockrun_config());
    builder.append_entry(Entry::new(good.key, good.ts, good.encode_value()));
    builder.append_entry(Entry::new(20, 2, vec![0x7F, 1, 2, 3]));
    builder.append_entry(Entry::new(30, 3, vec![1, 0xEE])); // a delete, then a stray byte
    let (meta, bytes) = builder.finish();
    let run = SortedRun::from_meta(1, 1, meta);
    write_built(&session, &ssd, &run, &bytes).unwrap();

    let lookup = |key: u64| {
        let mut found = Vec::new();
        let hashes = BloomFilter::hashes_of(key);
        lookup_in_run(&session, &ssd, &run, None, key, hashes, |u| found.push(u)).map(|()| found)
    };
    assert_eq!(lookup(10).unwrap(), vec![good]);
    assert!(lookup(11).unwrap().is_empty());
    for key in [20, 30] {
        let err = lookup(key).unwrap_err();
        assert!(matches!(err, MasmError::Corrupt("run entry")), "{err}");
    }
}

/// Acceptance: with `CodecChoice::Lz` the on-disk bytes of a run built
/// from the synthetic update workload shrink by at least 20% versus
/// identity — and both runs scan back identically.
#[test]
fn lz_codec_shrinks_synthetic_runs_at_least_20_percent() {
    let updates = synthetic_updates(20_000);
    let build = |codec: CodecChoice| {
        let (ssd, session) = flash();
        let mut cfg = MasmConfig::small_for_tests();
        cfg.codec = codec;
        let run = write_run(&session, &ssd, &cfg, 1, 0, 1, &updates).unwrap();
        let got: Vec<UpdateRecord> =
            RunScan::with_cache(ssd, session, Arc::new(run.clone()), None, 0, u64::MAX).collect();
        assert_eq!(got, updates, "{codec:?} run must scan back identically");
        run
    };
    let identity = build(CodecChoice::Identity);
    let lz = build(CodecChoice::Lz);

    assert_eq!(identity.count, lz.count);
    assert!(
        lz.bytes * 10 <= identity.bytes * 8,
        "lz run {} bytes !≤ 80% of identity {} bytes",
        lz.bytes,
        identity.bytes
    );
    let comp = lz.meta.compression();
    assert!(
        comp.ratio() <= 0.8,
        "data-block compression ratio {:.3} above 0.8",
        comp.ratio()
    );
    assert_eq!(comp.blocks_lz, comp.blocks, "every block lz-coded");
    // Same raw content, same zone count: the block budget applies to
    // raw bytes, so metadata cost is codec-independent.
    assert_eq!(identity.meta.zones.len(), lz.meta.zones.len());
    assert_eq!(identity.memory_bytes(), lz.memory_bytes());
}

/// Disjoint-run compaction under `CodecChoice::Adaptive` (mixed
/// per-block codec ids) still moves every block verbatim: zero bytes
/// decoded, zero random SSD writes — the acceptance pairing of the
/// codec subsystem with PR 2's zero-decode pipeline, at engine level.
#[test]
fn adaptive_codec_disjoint_compaction_stays_zero_decode_and_sequential() {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.codec = CodecChoice::Adaptive;
    let t = table(cfg, 100);
    for band in 0..4u64 {
        for i in 0..400u64 {
            let op = UpdateOp::Insert(payload((band * 1000 + i) as u32));
            t.put(band * 100_000 + i * 2 + 1, op).unwrap();
        }
        t.flush().unwrap();
    }
    assert!(t.engine().run_count() >= 4);
    let comp_before = t.stats().compression;
    assert!(
        comp_before.stored_bytes < comp_before.raw_bytes,
        "adaptive saves on compressible inserts: {comp_before:?}"
    );
    let expect = t.rows(0, Key::MAX);

    let before = t.dev.ssds[0].stats();
    let report = t.compact().unwrap()[0];
    let delta = t.dev.ssds[0].stats().delta(&before);
    assert_eq!(report.bytes_decoded, 0, "zero-decode: {report:?}");
    assert_eq!(report.blocks_merged, 0);
    assert!(report.blocks_moved > 0);
    assert_eq!(delta.random_writes, 0, "{delta:?}");
    assert_eq!(t.engine().run_count(), 1);
    assert!(
        expect == t.rows(0, Key::MAX),
        "results unchanged after mixed-codec move"
    );
}

/// Reading the same key ranges twice: the second pass is served entirely
/// from the block cache — zero SSD reads — and the counters show it.
#[test]
fn warm_cache_scans_issue_zero_ssd_reads() {
    let t = table(MasmConfig::small_for_tests(), 300);
    for i in 0..3000u64 {
        t.put(i * 2 + 1, UpdateOp::Insert(payload(1))).unwrap();
    }
    assert!(t.engine().run_count() > 0);

    let ssd = &t.dev.ssds[0];
    let cold_n = t.rows(0, Key::MAX).len();
    let cold = ssd.stats();
    assert!(cold.read_ops > 0, "cold scan read the SSD");

    let warm_n = t.rows(0, Key::MAX).len();
    let warm = ssd.stats();
    assert_eq!(cold_n, warm_n);
    assert_eq!(
        warm.read_ops, cold.read_ops,
        "warm scan issued SSD reads: {warm:?}"
    );

    let cache = t.engine().cache_stats();
    assert!(cache.hits > 0, "{cache:?}");
    assert!(cache.hit_rate() > 0.0);
}
