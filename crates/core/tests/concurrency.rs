//! Snapshot consistency under interleaving (§3.2's "Multiple Concurrent
//! Range Scans" and "Online Updates and Range Scan"): writers, scanners
//! and a migration take turns on one thread, each on its own session,
//! in the order a seed picks, with scans left open across the other
//! lanes' turns. Every scan must return the model as of its timestamp,
//! whatever the interleaving.

use masm_core::update::UpdateOp;
use masm_core::MasmConfig;
use masm_model::{payload, Lanes, Op, Table, Turn};
use masm_pagestore::Key;

/// Interleavings per schedule.
const SEEDS: u64 = 16;

/// `schedule` (a seed in, its trace out) at every seed, the first one
/// twice: a seed replays the same turns with the same results.
fn at_every_seed(schedule: impl Fn(u64) -> Vec<Turn>) {
    assert_eq!(schedule(0), schedule(0), "seed 0 replayed differently");
    for seed in 1..SEEDS {
        schedule(seed);
    }
}

/// An insert of odd key `2i + 1`.
fn insert(i: u64) -> Op {
    Op::Put(i * 2 + 1, UpdateOp::Insert(payload(i as u32)))
}

/// One writer inserts odd keys in ascending order, so a consistent
/// snapshot holds odd keys 1, 3, …, 2j + 1 for some j and no others;
/// four scanners take three full scans each meanwhile, and the buffer
/// flushes under them.
#[test]
fn concurrent_scans_see_consistent_prefixes() {
    at_every_seed(|seed| {
        let mut t = Table::new(MasmConfig::small_for_tests());
        let mut model = t.load(1_000);
        let mut lanes = Lanes::new(seed).ops((0..1_200).map(insert));
        for _ in 0..4 {
            lanes = lanes.scans(0, Key::MAX, 3);
        }
        let trace = lanes.run(&mut t, &mut model);
        assert!(
            t.engine().run_count() > 0,
            "the buffer flushed under the scans"
        );
        trace
    });
}

/// Scans racing a migration that goes a key range at a time and then
/// whole: each piece waits for the scans older than it, the scans
/// opened between the pieces read pages some pieces have stamped.
#[test]
fn migration_concurrent_with_scans_preserves_results() {
    at_every_seed(|seed| {
        let mut t = Table::new(MasmConfig::small_for_tests());
        let mut model = t.load(1_000);
        let inserts: Vec<Op> = (0..800).map(insert).chain([Op::Flush]).collect();
        t.run(&mut model, &inserts);
        assert!(t.engine().run_count() > 0);
        let pieces = (0..4).map(|k| Op::MigrateRange(k * 500, k * 500 + 499));
        let mut lanes = Lanes::new(seed).ops(pieces.chain([Op::Migrate]));
        for _ in 0..3 {
            lanes = lanes.scans(0, Key::MAX, 3);
        }
        let trace = lanes.run(&mut t, &mut model);
        assert_eq!(t.engine().run_count(), 0, "the migration retired every run");
        t.check(&model);
        trace
    });
}

/// Four writers on disjoint odd keys: every update lands.
#[test]
fn concurrent_updaters_never_lose_updates() {
    at_every_seed(|seed| {
        let mut t = Table::new(MasmConfig::small_for_tests());
        let mut model = t.load(1_000);
        let mut lanes = Lanes::new(seed);
        for lane in 0..4 {
            lanes = lanes.ops((lane * 500..(lane + 1) * 500).map(insert));
        }
        let trace = lanes.run(&mut t, &mut model);
        t.check(&model);
        let odd = t
            .rows(0, Key::MAX)
            .iter()
            .filter(|r| r.key % 2 == 1)
            .count();
        assert_eq!(odd, 2_000);
        trace
    });
}

#[test]
fn scan_opened_before_update_is_isolated_even_across_flush() {
    let mut t = Table::new(MasmConfig::small_for_tests());
    let mut model = t.load(500);
    // Open a scan, then push enough updates to force buffer flushes.
    let scan = t.scan(0, Key::MAX).unwrap();
    let ts = scan.timestamp();
    for i in 0..2_000 {
        t.step(&mut model, &insert(i));
    }
    assert!(t.engine().run_count() > 0, "flushes must have happened");
    let got: Vec<_> = scan.collect();
    assert!(
        got.iter().all(|r| r.key % 2 == 0),
        "the old snapshot must see none of the later inserts"
    );
    assert_eq!(got, model.scan(0, Key::MAX, ts));
    assert_eq!(got.len(), 500);
}
