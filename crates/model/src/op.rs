//! The step alphabet, its strategy and its runner.

use masm_core::engine::MigrationReport;
use masm_core::ts::Timestamp;
use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::{MasmError, RecoveryReport};
use masm_pagestore::{Key, Record};
use masm_storage::{MergeReport, SessionHandle};
use proptest::prelude::*;

use crate::{assert_rows, payload, Model, Table};

/// One step against a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Apply one update.
    Put(Key, UpdateOp),
    /// Point lookup.
    Get(Key),
    /// Scan `[begin, end]`, walking away after at most this many records.
    Scan(Key, Key, usize),
    /// Turn the update buffer into a run.
    Flush,
    /// Compact the runs.
    Compact,
    /// Migrate the cached updates into the heap.
    Migrate,
    /// Migrate the heap pages overlapping `[begin, end]`.
    MigrateRange(Key, Key),
    /// Pull the plug and recover.
    Crash,
}

/// What a step returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A put's commit timestamp.
    Put(Timestamp),
    /// What a lookup found.
    Get(Option<Record>),
    /// The records a scan returned, and the session time the `next`
    /// calls that returned them took.
    Scan {
        /// Records returned.
        records: u64,
        /// Session time of the `next` calls that returned a record.
        ns: u64,
    },
    /// A flush.
    Flush,
    /// The compaction's report.
    Compact(MergeReport),
    /// The (partial) migration's report.
    Migrate(MigrationReport),
    /// What recovery reported.
    Crash(RecoveryReport),
}

/// An update: inserts, deletes, modifies of either field, replaces.
pub fn update_strategy() -> impl Strategy<Value = UpdateOp> {
    let modify = |field: u16, value: Vec<u8>| UpdateOp::Modify(vec![FieldPatch { field, value }]);
    prop_oneof![
        3 => any::<u32>().prop_map(|v| UpdateOp::Insert(payload(v))),
        3 => Just(UpdateOp::Delete),
        3 => any::<u32>().prop_map(move |v| modify(0, v.to_le_bytes().to_vec())),
        1 => any::<u8>().prop_map(move |b| modify(1, vec![b; 88])),
        1 => any::<u32>().prop_map(|v| UpdateOp::Replace(payload(v))),
    ]
}

/// Steps over keys `0..keys`: mostly puts, reads, and every maintenance
/// step but [`Op::Crash`] — mix that in where a test wants crashes.
pub fn op_strategy(keys: u64) -> impl Strategy<Value = Op> {
    let width = (keys / 4).max(1);
    prop_oneof![
        40 => (0..keys, update_strategy()).prop_map(|(key, op)| Op::Put(key, op)),
        4 => (0..keys).prop_map(Op::Get),
        4 => (0..keys, 0..width, 1..64usize).prop_map(|(b, w, take)| Op::Scan(b, b + w, take)),
        3 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => Just(Op::Migrate),
        2 => (0..keys, 0..keys).prop_map(|(b, w)| Op::MigrateRange(b, b + w)),
    ]
}

/// An endless seeded stream of [`Op::Put`]s over keys `0..keys`.
pub fn puts(seed: &str, keys: u64) -> impl Iterator<Item = Op> {
    let mut rng = TestRng::deterministic(seed);
    let strategy = (0..keys, update_strategy());
    std::iter::from_fn(move || {
        let (key, op) = strategy.generate(&mut rng);
        Some(Op::Put(key, op))
    })
}

impl Table {
    /// Run `op` on the table's own session: a put goes into `model`
    /// with its timestamp, a read must return what `model` says, and
    /// what a crash recovers must be `model` too.
    pub fn step(&mut self, model: &mut Model, op: &Op) -> Outcome {
        let session = self.session.clone();
        self.step_on(model, &session, op)
    }

    /// Run `op` on `session`: a put goes into `model` with its
    /// timestamp, a read must return what `model` says, and what a crash
    /// recovers must be `model` too. Any error fails the test.
    pub(crate) fn step_on(
        &mut self,
        model: &mut Model,
        session: &SessionHandle,
        op: &Op,
    ) -> Outcome {
        let failed = |e: MasmError| -> Outcome { panic!("{op:?}: {e}") };
        let done = match op {
            Op::Put(key, update) => self.put_on(session, *key, update.clone()).map(|ts| {
                model.apply(ts, *key, update.clone());
                Outcome::Put(ts)
            }),
            Op::Get(key) => self.get_on(session, *key).map(|got| {
                assert_rows(
                    got.as_slice(),
                    model.get(*key).as_slice(),
                    format_args!("{op:?}"),
                );
                Outcome::Get(got)
            }),
            Op::Scan(begin, end, take) => {
                self.scan_at(session, *begin, *end, None).map(|mut scan| {
                    let (mut got, mut ns) = (Vec::new(), 0);
                    while got.len() < *take {
                        let before = session.now();
                        let Some(record) = scan.next() else { break };
                        ns += session.now() - before;
                        got.push(record);
                    }
                    if let Some(e) = scan.error() {
                        panic!("{op:?}: {e}");
                    }
                    let want = model.scan(*begin, *end, scan.timestamp());
                    let want = &want[..want.len().min(*take)];
                    assert_rows(&got, want, format_args!("{op:?} at {}", scan.timestamp()));
                    let records = got.len() as u64;
                    Outcome::Scan { records, ns }
                })
            }
            Op::Flush => self.flush().map(|()| Outcome::Flush),
            Op::Compact => self.compact().map(Outcome::Compact),
            Op::Migrate => self.migrate().map(Outcome::Migrate),
            Op::MigrateRange(begin, end) => self.migrate_range(*begin, *end).map(Outcome::Migrate),
            Op::Crash => self.crash(None).map(|report| {
                self.check(model);
                Outcome::Crash(report)
            }),
        };
        done.unwrap_or_else(failed)
    }

    /// [`Table::step`] through `ops`, then [`Table::check`].
    pub fn run(&mut self, model: &mut Model, ops: &[Op]) {
        for op in ops {
            self.step(model, op);
        }
        self.check(model);
    }

    /// Hold a scan of everything, at a fresh timestamp, to `model`.
    pub fn check(&self, model: &Model) {
        let want = model.scan(0, Key::MAX, Timestamp::MAX);
        assert_rows(&self.rows(0, Key::MAX), &want, "a scan of everything");
    }
}
