//! The engine against the reference model: for any sequence of updates
//! interleaved with lookups, scans (some dropped early), flushes,
//! compactions, migrations and crash-recoveries, every read returns
//! what the model says and every recovery brings the model back.

use proptest::prelude::*;

use masm_core::update::UpdateOp;
use masm_core::MasmConfig;
use masm_model::{op_strategy, payload, Op, Table};

/// Steps over keys `0..keys`, one in thirteen a crash.
fn steps(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![12 => op_strategy(keys), 1 => Just(Op::Crash)]
}

/// `ops` through a table of `rows` rows, held to the model throughout.
fn run(rows: u64, ops: &[Op]) {
    let mut t = Table::new(MasmConfig::small_for_tests());
    let mut model = t.load(rows);
    t.run(&mut model, ops);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn masm_matches_oracle(ops in proptest::collection::vec(steps(128), 1..120)) {
        run(64, &ops);
    }

    #[test]
    fn masm_matches_oracle_dense_keyspace(ops in proptest::collection::vec(steps(16), 1..200)) {
        // Tiny key space: heavy duplicate traffic exercises the
        // fold/merge paths hard.
        run(8, &ops);
    }
}

#[test]
fn regression_delete_insert_delete_same_key() {
    let scan = Op::Scan(0, 7, usize::MAX);
    run(
        4,
        &[
            Op::Put(2, UpdateOp::Delete),
            Op::Put(3, UpdateOp::Insert(payload(5))),
            scan.clone(),
            Op::Put(2, UpdateOp::Delete),
            Op::Migrate,
            scan.clone(),
            Op::Crash,
            scan,
        ],
    );
}

#[test]
fn regression_migrate_on_empty_then_insert() {
    run(
        4,
        &[
            Op::Migrate,
            Op::Put(1, UpdateOp::Insert(payload(1))),
            Op::Migrate,
            Op::Crash,
            Op::Scan(0, 7, usize::MAX),
        ],
    );
}
