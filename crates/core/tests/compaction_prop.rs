//! Property tests for the zero-decode compaction pipeline: for random
//! overlapping and disjoint run sets, the planned (move/merge) output
//! must be record-for-record identical to the full-decode k-way merge,
//! and every moved block's CRC must survive verbatim.
//!
//! Input runs are written under **mixed codecs** (each run cycles
//! through identity / delta / lz), so every property here
//! also exercises the codec stage: moved blocks must carry their codec
//! id, raw length, and CRC through compaction untouched.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use masm_core::config::{CodecChoice, IndexGranularity, MasmConfig};
use masm_core::merge::{compact_block_runs, fold_duplicates};
use masm_core::run::{write_built, write_run, RunScan, SortedRun};
use masm_core::update::{UpdateOp, UpdateRecord};
use masm_model::flash;
use masm_pagestore::{Field, FieldType, Schema};
use masm_storage::{SessionHandle, SimDevice};

/// The inputs' schema: their replaces carry one `u32`.
fn u32_schema() -> Schema {
    Schema::new(vec![Field::new("v", FieldType::U32)])
}

fn test_cfg() -> MasmConfig {
    let mut cfg = MasmConfig::small_for_tests();
    // Small blocks so even modest runs span many zone-map entries.
    cfg.index_granularity = IndexGranularity::Bytes(128);
    cfg
}

struct Built {
    ssd: SimDevice,
    session: SessionHandle,
    runs: Vec<Arc<SortedRun>>,
    /// Every input update, globally sorted by `(key, ts)`.
    all: Vec<UpdateRecord>,
    next_base: u64,
}

/// Materialize one run per key set, cycling the codec per run so run
/// sets mix per-block codecs. `disjoint` shifts each run into its own
/// key band so no two runs overlap; otherwise all runs share the same
/// key space (same key in several runs, unique timestamps).
fn build_runs(run_keys: &[std::collections::BTreeSet<u64>], disjoint: bool) -> Built {
    let (ssd, session) = flash();
    let mut ts = 1u64;
    let mut all: Vec<UpdateRecord> = Vec::new();
    let mut runs = Vec::new();
    let mut next_base = 0u64;
    for (i, keys) in run_keys.iter().enumerate() {
        let mut cfg = test_cfg();
        cfg.codec = CodecChoice::ALL[i % CodecChoice::ALL.len()];
        let offset = if disjoint { i as u64 * 100_000 } else { 0 };
        let updates: Vec<UpdateRecord> = keys
            .iter()
            .map(|&k| {
                let u = UpdateRecord::new(
                    ts,
                    k + offset,
                    UpdateOp::Replace((ts as u32).to_le_bytes().to_vec()),
                );
                ts += 1;
                u
            })
            .collect();
        let run = write_run(&session, &ssd, &cfg, i as u64, next_base, 1, &updates).unwrap();
        next_base += run.bytes;
        all.extend(updates);
        runs.push(Arc::new(run));
    }
    all.sort_by_key(|u| (u.key, u.ts));
    Built {
        ssd,
        session,
        runs,
        all,
        next_base,
    }
}

/// Run the planned compaction, write the output, and scan it back.
fn compact_and_scan(
    b: &Built,
    fold: bool,
) -> (SortedRun, Vec<UpdateRecord>, masm_storage::MergeReport) {
    let guard = |_: u64, _: u64| true;
    let (mut meta, bytes, report) = compact_block_runs(
        &b.session,
        &b.ssd,
        &test_cfg(),
        &u32_schema(),
        &b.runs,
        fold.then_some(&guard as &dyn Fn(u64, u64) -> bool),
    )
    .unwrap();
    meta.base = b.next_base;
    let out = SortedRun::from_meta(1000, 2, meta);
    // As in the engine's merge path: the output opens a fresh write
    // stream, so drop the read↔write single-head artifact before the
    // sequential run write.
    b.ssd.prime_head_position(out.base);
    write_built(&b.session, &b.ssd, &out, &bytes).unwrap();
    let got: Vec<UpdateRecord> = RunScan::with_cache(
        b.ssd.clone(),
        b.session.clone(),
        Arc::new(out.clone()),
        None,
        0,
        u64::MAX,
    )
    .collect();
    (out, got, report)
}

fn input_crcs(b: &Built) -> HashSet<u32> {
    b.runs
        .iter()
        .flat_map(|r| r.meta.zones.iter().map(|z| z.crc))
        .collect()
}

/// A disjoint compaction's output keeps a usable bloom filter: the
/// union of the inputs' filters (folded to a common power-of-two
/// geometry) accepts every key, so absent-key point lookups keep
/// skipping the run without I/O.
#[test]
fn disjoint_compaction_retains_usable_bloom() {
    let sets: Vec<std::collections::BTreeSet<u64>> = vec![
        (0..500).map(|i| i * 3).collect(),
        (0..300).map(|i| i * 2).collect(),
    ];
    let b = build_runs(&sets, true);
    let (out, _, report) = compact_and_scan(&b, false);
    assert_eq!(report.blocks_merged, 0, "fully disjoint: {report:?}");
    let bloom = out.meta.bloom.as_ref().expect("union bloom survives");
    for u in &b.all {
        assert!(bloom.contains(u.key), "no false negatives for {}", u.key);
    }
    assert!(bloom.fill_ratio() < 0.95, "{}", bloom.fill_ratio());
}

proptest! {
    /// Unfolded planned compaction is the identity merge: exactly the
    /// concatenation of all inputs in `(key, ts)` order, regardless of
    /// how the planner split move from merge segments.
    #[test]
    fn planned_compaction_equals_full_decode_merge(
        run_keys in proptest::collection::vec(
            proptest::collection::btree_set(0u64..1500, 1..120),
            2..5
        ),
        disjoint in any::<bool>(),
    ) {
        let b = build_runs(&run_keys, disjoint);
        let (out, got, report) = compact_and_scan(&b, false);

        prop_assert_eq!(&got, &b.all, "record-for-record identical");

        // Accounting covers every input block exactly once.
        let total_blocks: u64 = b.runs.iter().map(|r| r.meta.zones.len() as u64).sum();
        prop_assert_eq!(report.blocks_moved + report.blocks_merged, total_blocks);
        prop_assert_eq!(report.entries_out, b.all.len() as u64);
        prop_assert_eq!(report.fan_in, b.runs.len() as u64);

        // Moved blocks keep their CRCs verbatim.
        let crcs = input_crcs(&b);
        let preserved = out
            .meta
            .zones
            .iter()
            .filter(|z| crcs.contains(&z.crc))
            .count() as u64;
        prop_assert!(
            preserved >= report.blocks_moved,
            "{} preserved < {} moved",
            preserved,
            report.blocks_moved
        );

        if disjoint {
            prop_assert_eq!(report.bytes_decoded, 0, "disjoint inputs decode nothing");
            prop_assert_eq!(report.blocks_merged, 0);
            prop_assert_eq!(preserved, out.meta.zones.len() as u64, "all CRCs verbatim");
            prop_assert_eq!(b.ssd.stats().random_writes, 0, "{:?}", b.ssd.stats());
        }
    }

    /// Zero-decode compaction of **mixed-codec** disjoint inputs moves
    /// every block verbatim: per-block codec ids, raw lengths, stored
    /// lengths, and CRCs survive as an exact multiset, no byte is
    /// decoded, and the output write stream stays sequential.
    #[test]
    fn mixed_codec_disjoint_compaction_preserves_codec_ids_and_crcs(
        run_keys in proptest::collection::vec(
            proptest::collection::btree_set(0u64..1500, 1..120),
            3..5
        ),
    ) {
        let b = build_runs(&run_keys, true);
        // The codec cycle must actually mix ids across the input runs.
        let input_ids: HashSet<u8> = b
            .runs
            .iter()
            .flat_map(|r| r.meta.zones.iter().map(|z| z.codec_id))
            .collect();
        prop_assert!(input_ids.len() >= 2, "inputs carry mixed codecs: {input_ids:?}");

        let (out, got, report) = compact_and_scan(&b, false);
        prop_assert_eq!(&got, &b.all, "record-for-record identical");
        prop_assert_eq!(report.bytes_decoded, 0, "disjoint ⇒ zero decode");
        prop_assert_eq!(report.blocks_merged, 0);
        prop_assert_eq!(b.ssd.stats().random_writes, 0, "{:?}", b.ssd.stats());

        let mut want: Vec<(u8, u32, u32, u32)> = b
            .runs
            .iter()
            .flat_map(|r| r.meta.zones.iter())
            .map(|z| (z.codec_id, z.crc, z.len, z.raw_len))
            .collect();
        let mut have: Vec<(u8, u32, u32, u32)> = out
            .meta
            .zones
            .iter()
            .map(|z| (z.codec_id, z.crc, z.len, z.raw_len))
            .collect();
        want.sort_unstable();
        have.sort_unstable();
        prop_assert_eq!(have, want, "codec ids and CRCs preserved verbatim");
    }

    /// Folded planned compaction agrees with folding the full-decode
    /// merge (each run's keys are unique within the run, so every
    /// duplicate pair spans runs and lands in a merge segment).
    #[test]
    fn folded_compaction_equals_folded_full_merge(
        run_keys in proptest::collection::vec(
            proptest::collection::btree_set(0u64..400, 1..80),
            2..5
        ),
    ) {
        let b = build_runs(&run_keys, false);
        let (_, got, _) = compact_and_scan(&b, true);
        let want = fold_duplicates(b.all.clone(), &u32_schema(), |_, _| true);
        prop_assert_eq!(got, want);
    }
}
