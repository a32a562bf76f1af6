//! Test support for the MaSM engine, shared by the integration tests of
//! `masm-core` and `masm-baselines` (a dev-dependency only):
//!
//! * [`Model`] — the one reference model: every update applied to a
//!   table, by key and timestamp, over the rows it was loaded with. It
//!   says what a scan at timestamp *t* must return (§3.2: exactly the
//!   updates ≤ *t*) and what a crash must recover to (§3.6: every
//!   acknowledged update).
//! * [`Table`] — the one fixture: an engine over fresh in-memory
//!   devices, with a crash image taken WAL → SSD → disk and recovery
//!   from it.
//! * [`Op`] — the one step alphabet, its strategy ([`op_strategy`]) and
//!   its runner ([`Table::step`], [`Table::run`]), which keeps the model
//!   up to date and holds every read to it.
//! * [`Lanes`] — a seeded schedule: lanes take turns on one thread, each
//!   on its own session, so an interleaving of writers, scanners and
//!   maintenance is a seed.
//!
//! Unit-test modules inside `masm-core` cannot use this crate: it links
//! the normal `masm-core` library, whose types are not those of that
//! library's own test build.

mod lanes;
mod model;
mod op;
mod table;

use masm_pagestore::{Record, Schema};
use masm_storage::{SessionHandle, SimDevice};

pub use lanes::{Lanes, Turn};
pub use model::Model;
pub use op::{op_strategy, puts, update_strategy, Op, Outcome};
pub use table::{Devices, Spec, Table};

/// The schema of every table here: the paper's 100-byte synthetic
/// record (a `u32` measure and 88 filler bytes behind an 8-byte key).
pub fn schema() -> Schema {
    Schema::synthetic_100b()
}

/// A payload whose measure (field 0) is `v`.
pub fn payload(v: u32) -> Vec<u8> {
    let s = schema();
    let mut p = s.empty_payload();
    s.set_u32(&mut p, 0, v);
    p
}

/// A record's measure (field 0).
pub fn value(record: &Record) -> u32 {
    schema().get_u32(&record.payload, 0)
}

/// The §4.1 table of `n` rows: row `i` has key `2i` and measure `i`, so
/// odd keys stay free for inserts.
pub fn rows(n: u64) -> impl Iterator<Item = Record> {
    (0..n).map(|i| Record::new(i * 2, payload(i as u32)))
}

/// A fresh flash device on a clock of its own, its write head primed at
/// offset 0, and a session on that clock: for tests that write runs
/// without an engine.
pub fn flash() -> (SimDevice, SessionHandle) {
    let dev = Devices::default();
    dev.ssd.prime_head_position(0);
    (dev.ssd.clone(), dev.session())
}

/// Fail unless `got` equals `want`, naming `what` and the first record
/// where they part (key and measure — whole payloads are 92 bytes).
pub fn assert_rows(got: &[Record], want: &[Record], what: impl std::fmt::Display) {
    let brief = |r: Option<&Record>| r.map(|r| (r.key, value(r)));
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        panic!(
            "{what}: {} records, want {}; they part at {i}: got {:?}, want {:?}",
            got.len(),
            want.len(),
            brief(got.get(i)),
            brief(want.get(i))
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masm_core::MasmConfig;
    use proptest::prelude::*;

    /// A table of 150 rows.
    fn table() -> (Table, Model) {
        let t = Table::new(MasmConfig::small_for_tests());
        let model = t.load(150);
        (t, model)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// Every step, crashes included: the runner holds each read and
        /// each recovery to the model.
        #[test]
        fn the_table_is_the_model(
            ops in proptest::collection::vec(prop_oneof![20 => op_strategy(400), 1 => Just(Op::Crash)], 1..300),
        ) {
            let (mut t, mut model) = table();
            t.run(&mut model, &ops);
        }
    }

    /// A writer, a maintenance lane and two scanners: one seed gives one
    /// trace, twice; another seed another.
    #[test]
    fn a_seed_replays_its_schedule() {
        let schedule = |seed: u64| {
            let (mut t, mut model) = table();
            let maintenance = [Op::Flush, Op::MigrateRange(0, 99), Op::Compact, Op::Migrate];
            let lanes = Lanes::new(seed)
                .ops(puts("writer", 400).take(600))
                .ops(maintenance)
                .scans(0, 399, 4)
                .scans(100, 199, 4);
            let trace = lanes.run(&mut t, &mut model);
            t.check(&model);
            trace
        };
        let trace = schedule(7);
        assert!(trace.len() > 600, "{} turns", trace.len());
        assert_eq!(trace, schedule(7));
        assert_ne!(trace, schedule(8));
    }
}
