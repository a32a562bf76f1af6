//! Property-based tests for MaSM core data structures.

use std::sync::Arc;

use proptest::prelude::*;

use masm_core::config::{IndexGranularity, MasmConfig};
use masm_core::merge::{fold_duplicates, KWayUpdates, UpdateStream};
use masm_core::run::{write_run, RunScan};
use masm_core::update::{FieldPatch, UpdateOp, UpdateRecord};
use masm_model::flash;
use masm_pagestore::{Field, FieldType, Record, Schema};

/// A two-field, 8-byte schema: the updates below carry 8-byte payloads.
fn small_schema() -> Schema {
    Schema::new(vec![
        Field::new("a", FieldType::U32),
        Field::new("b", FieldType::Bytes(4)),
    ])
}

fn op_strategy() -> impl Strategy<Value = UpdateOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 8..=8).prop_map(UpdateOp::Insert),
        Just(UpdateOp::Delete),
        (any::<u32>()).prop_map(|v| UpdateOp::Modify(vec![FieldPatch {
            field: 0,
            value: v.to_le_bytes().to_vec(),
        }])),
        proptest::collection::vec(any::<u8>(), 8..=8).prop_map(UpdateOp::Replace),
    ]
}

proptest! {
    /// encode/decode is the identity for arbitrary update records.
    #[test]
    fn update_codec_roundtrip(ts in 1u64..1000, key in any::<u64>(), op in op_strategy()) {
        let u = UpdateRecord::new(ts, key, op);
        let mut buf = Vec::new();
        u.encode_into(&mut buf);
        let (back, used) = UpdateRecord::decode(&buf).unwrap();
        prop_assert_eq!(&back, &u);
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(used, u.encoded_len());
    }

    /// Merging a chain of updates is equivalent to applying them one by
    /// one, from any base state (the §3.2/§3.5 folding invariant).
    #[test]
    fn merge_chain_equals_sequential_apply(
        ops in proptest::collection::vec(op_strategy(), 1..8),
        base_present in any::<bool>(),
    ) {
        let s = small_schema();
        let key = 42u64;
        let chain: Vec<UpdateRecord> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| UpdateRecord::new(i as u64 + 1, key, op))
            .collect();
        let base = base_present.then(|| Record::new(key, vec![0u8; 8]));

        // Sequential application.
        let mut seq = base.clone();
        for u in &chain {
            seq = u.clone().apply_to(seq, &s);
        }
        // Folded application.
        let mut folded = chain[0].clone();
        for u in &chain[1..] {
            folded = folded.merge_with_later(u, &s);
        }
        prop_assert_eq!(seq, folded.apply_to(base, &s));
    }

    /// fold_duplicates with an always-true guard preserves apply
    /// semantics for every key.
    #[test]
    fn fold_duplicates_preserves_semantics(
        raw in proptest::collection::vec((0u64..10, op_strategy()), 1..40)
    ) {
        let s = small_schema();
        let mut updates: Vec<UpdateRecord> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (key, op))| UpdateRecord::new(i as u64 + 1, key, op))
            .collect();
        updates.sort_by_key(|x| (x.key, x.ts));
        let folded = fold_duplicates(updates.clone(), &s, |_, _| true);
        // At most one update per key remains.
        for w in folded.windows(2) {
            prop_assert!(w[0].key < w[1].key);
        }
        for key in 0u64..10 {
            let base = Some(Record::new(key, vec![9u8; 8]));
            let mut seq = base.clone();
            for u in updates.iter().filter(|u| u.key == key) {
                seq = u.clone().apply_to(seq, &s);
            }
            let via = match folded.iter().find(|u| u.key == key) {
                Some(u) => u.clone().apply_to(base, &s),
                None => base,
            };
            prop_assert_eq!(seq, via, "key {}", key);
        }
    }

    /// A materialized run scanned over any range returns exactly the
    /// updates in that range, in order.
    #[test]
    fn run_scan_any_range(
        keys in proptest::collection::btree_set(0u64..2000, 1..200),
        a in 0u64..2000,
        b in 0u64..2000,
    ) {
        let (begin, end) = (a.min(b), a.max(b));
        let (ssd, session) = flash();
        let mut cfg = MasmConfig::small_for_tests();
        cfg.index_granularity = IndexGranularity::Bytes(96);
        let updates: Vec<UpdateRecord> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| UpdateRecord::new(i as u64 + 1, k, UpdateOp::Delete))
            .collect();
        let run = write_run(&session, &ssd, &cfg, 0, 0, 1, &updates).unwrap();
        let got: Vec<u64> = RunScan::with_cache(ssd, session, Arc::new(run), None, begin, end)
            .map(|u| u.key)
            .collect();
        let want: Vec<u64> = keys.range(begin..=end).copied().collect();
        prop_assert_eq!(got, want);
    }

    /// K-way merge of arbitrary sorted streams yields a globally sorted
    /// permutation of the inputs.
    #[test]
    fn kway_merge_is_sorted_permutation(
        streams_raw in proptest::collection::vec(
            proptest::collection::vec((0u64..100, 1u64..50), 0..30),
            1..6
        )
    ) {
        let mut all: Vec<(u64, u64)> = Vec::new();
        let streams: Vec<UpdateStream> = streams_raw
            .into_iter()
            .map(|mut pairs| {
                pairs.sort();
                all.extend(pairs.iter().copied());
                let us: Vec<UpdateRecord> = pairs
                    .into_iter()
                    .map(|(k, ts)| UpdateRecord::new(ts, k, UpdateOp::Delete))
                    .collect();
                Box::new(us.into_iter()) as UpdateStream
            })
            .collect();
        let merged: Vec<(u64, u64)> = KWayUpdates::new(streams)
            .map(|u| (u.key, u.ts))
            .collect();
        all.sort();
        prop_assert_eq!(merged, all);
    }
}
