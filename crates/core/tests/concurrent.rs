//! Concurrent-engine integration tests: snapshot-consistent reads while
//! other callers flush and compact, bounded streaming-merge memory,
//! parallel move-segment execution, and maintenance fault recovery.
//!
//! The stress test is the check the concurrency work is judged by: N
//! ingest lanes and M scanners run on threads of their own, each
//! flushing and compacting on its own thread when its call needs it;
//! every scan must return the reference model as of its timestamp, the
//! final state must be the model, and the SSD must finish with
//! `random_writes == 0` (design goal 2).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;

use masm_core::config::{IndexGranularity, MasmConfig};
use masm_core::merge::compact_block_runs;
use masm_core::run::{write_run, SortedRun};
use masm_core::update::{UpdateOp, UpdateRecord};
use masm_core::{MasmError, MasmResult};
use masm_model::{assert_rows, flash, payload, schema, value, Lanes, Model, Op, Spec, Table};
use masm_pagestore::Key;
use masm_storage::{SessionHandle, SimDevice};
use masm_telemetry::json::{parse, JsonValue};
use masm_telemetry::{RecordKind, TraceConfig, Tracer};

/// N ingest lanes write monotonically increasing values to their own
/// key sets while M scanners read full snapshots; whoever finds a full
/// buffer flushes it. The lanes write enough distinct keys (4,000, six
/// times each) for some 25 flushes, past the 16 open runs at which a
/// scan setup compacts, so a compaction runs too. Every scan must be
/// the model as of its timestamp, and after joining everything the
/// state must be the model. The round flight-records itself: the
/// accounting is exact, and the ingests and the flushes they ran are
/// in it.
#[test]
fn stress_concurrent_ingest_scan_compact() {
    const LANES: u64 = 4;
    const PER_LANE: u32 = 6000;
    const KEYS_PER_LANE: u32 = 1000;
    const SCANNERS: usize = 2;
    const SCANS: usize = 20;
    const BASE: u64 = 100_000;

    let t = Table::new(MasmConfig::small_for_tests());
    let mut model = t.load(100);

    // Flight-record the whole run: the queue is sized generously.
    let tracer = Arc::new(Tracer::new(TraceConfig {
        ring_capacity: 1 << 19,
        ..TraceConfig::default()
    }));
    t.engine().install_tracer(Arc::clone(&tracer));

    let (puts, scans) = thread::scope(|scope| {
        let ingesters: Vec<_> = (0..LANES)
            .map(|lane| {
                let t = &t;
                scope.spawn(move || {
                    let session = t.dev.session();
                    let puts = (0..PER_LANE).map(|j| {
                        let key = BASE + lane * 1000 + (j % KEYS_PER_LANE) as u64;
                        let op = UpdateOp::Replace(payload(j));
                        (t.put_on(&session, key, op.clone()).unwrap(), key, op)
                    });
                    puts.collect::<Vec<_>>()
                })
            })
            .collect();
        let scanners: Vec<_> = (0..SCANNERS)
            .map(|_| {
                scope.spawn(|| {
                    let session = t.dev.session();
                    let scans = (0..SCANS).map(|_| {
                        let scan = t.scan_at(&session, BASE, u64::MAX, None).unwrap();
                        (scan.timestamp(), scan.collect::<Vec<_>>())
                    });
                    scans.collect::<Vec<_>>()
                })
            })
            .collect();
        let puts: Vec<_> = ingesters
            .into_iter()
            .flat_map(|l| l.join().unwrap())
            .collect();
        let scans: Vec<_> = scanners
            .into_iter()
            .flat_map(|l| l.join().unwrap())
            .collect();
        (puts, scans)
    });
    for (ts, key, op) in puts {
        model.apply(ts, key, op);
    }
    for (ts, rows) in &scans {
        let want = model.scan(BASE, u64::MAX, *ts);
        assert_rows(
            rows,
            &want,
            format_args!("a scan at {ts} (non-snapshot read)"),
        );
    }
    t.check(&model);

    let stats = t.stats();
    assert_eq!(stats.ssd.random_writes, 0, "design goal 2 violated");
    assert!(stats.ops.flush.count > 0, "no flush ran");
    assert!(stats.merge.inputs > 0, "no compaction ran");

    // ---- Flight-recorder asserts: exact accounting ----
    let records = tracer.take_records();
    let ts = tracer.stats();
    assert!(ts.consistent(), "trace accounting drifted: {ts:?}");
    assert_eq!(ts.retained, 0, "take_records must fully drain");
    assert_eq!(ts.emitted, ts.drained + ts.dropped);

    let count = |kind: RecordKind, name: &str| {
        records
            .iter()
            .filter(|r| r.kind == kind && r.name == name)
            .count()
    };
    assert!(count(RecordKind::Span, "ingest") > 0, "no ingest op spans");
    assert!(count(RecordKind::Span, "flush") > 0, "no flush bodies");
}

/// A traced table records each kind of maintenance where its caller
/// ran it: with a migration threshold above what 16 runs fill (so a
/// compaction comes due first), puts flush full buffers, scan setup
/// compacts, and a migration runs whenever one is due. The exported
/// Chrome trace carries a complete span of each.
#[test]
fn a_traced_table_records_its_flushes_compactions_and_migrations() {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.migration_threshold = 0.6;
    // Folding would shrink 17 runs of the same 1,000 keys to one, and
    // the flash would never reach the migration threshold.
    cfg.merge_duplicates = false;
    let t = Table::new(cfg);
    t.load(1000);
    // Sampled ingest spans keep the trace small; maintenance spans are
    // never sampled away.
    let tracer = Arc::new(Tracer::new(TraceConfig {
        op_sample_shift: 6,
        ..TraceConfig::default()
    }));
    t.engine().install_tracer(Arc::clone(&tracer));
    for j in 0..50_000u32 {
        let op = UpdateOp::Replace(payload(j));
        t.put(u64::from(j % 1000), op).unwrap();
        if j % 500 == 499 {
            drop(t.scan(0, 0).unwrap());
        }
        if t.engine().needs_migration() {
            t.migrate().unwrap();
        }
    }

    let doc = parse(&tracer.export_chrome_trace()).expect("the trace is JSON");
    assert_eq!(tracer.stats().dropped, 0);
    let Some(JsonValue::Arr(events)) = doc.get("traceEvents") else {
        panic!("the trace carries a traceEvents array");
    };
    let is = |e: &JsonValue, key: &str, want: &str| matches!(e.get(key), Some(JsonValue::Str(got)) if got == want);
    for span in ["flush", "compact", "migrate"] {
        assert!(
            events
                .iter()
                .any(|e| is(e, "ph", "X") && is(e, "name", span)),
            "no complete {span} span"
        );
    }
}

/// Pay for what you use: one seeded schedule — two writers that also
/// flush, compact and migrate, and two scanners — ends in
/// byte-identical stats, virtual-time histograms included, on a table
/// without a tracer and on one with a disabled tracer installed, and
/// the disabled tracer records nothing.
#[test]
fn a_disabled_tracer_changes_no_number() {
    // Puts `from..to`, with `every` step after each 300th.
    let writer = |from: u32, to: u32, every: Op| {
        (from..to).flat_map(move |i| {
            let put = Op::Put(u64::from(i % 2_000), UpdateOp::Replace(payload(i)));
            let step = (i % 300 == 299).then(|| every.clone());
            std::iter::once(put).chain(step)
        })
    };
    let run = |tracer: Option<&Arc<Tracer>>| {
        let mut t = Table::new(MasmConfig::small_for_tests());
        if let Some(tracer) = tracer {
            t.engine().install_tracer(Arc::clone(tracer));
        }
        let mut model = t.load(1_000);
        Lanes::new(7)
            .ops(writer(0, 1_500, Op::Flush).chain([Op::Compact]))
            .ops(writer(1_500, 3_000, Op::Compact).chain([Op::Migrate]))
            .scans(0, Key::MAX, 3)
            .scans(500, 1_500, 3)
            .run(&mut t, &mut model);
        t.check(&model);
        t.stats()
    };
    let untraced = run(None);
    assert!(untraced.merge.inputs > 0, "the schedule compacts");
    assert!(untraced.ops.migrate.count > 0, "the schedule migrates");
    let tracer = Arc::new(Tracer::new(TraceConfig {
        enabled: false,
        ..TraceConfig::default()
    }));
    assert_eq!(run(Some(&tracer)).to_json(), untraced.to_json());
    assert_eq!(tracer.stats().emitted, 0);
}

/// Build `n_runs` runs of `per_run` entries each on `ssd`. Without
/// `interleave` the runs pack into disjoint key bands; with it every
/// run spans the same band, so compaction must merge-decode everything.
fn build_runs(
    cfg: &MasmConfig,
    ssd: &SimDevice,
    session: &SessionHandle,
    n_runs: u64,
    per_run: u64,
    interleave: bool,
) -> Vec<Arc<SortedRun>> {
    let mut runs = Vec::new();
    let mut base = 0u64;
    let mut ts = 1u64;
    for r in 0..n_runs {
        let updates: Vec<UpdateRecord> = (0..per_run)
            .map(|j| {
                let key = if interleave {
                    j * n_runs + r
                } else {
                    r * per_run * 2 + j
                };
                let u = UpdateRecord::new(ts, key, UpdateOp::Replace(payload(ts as u32)));
                ts += 1;
                u
            })
            .collect();
        let run = write_run(session, ssd, cfg, r, base, 1, &updates).unwrap();
        base += run.bytes;
        runs.push(Arc::new(run));
    }
    runs
}

fn merge_test_cfg() -> MasmConfig {
    let mut cfg = MasmConfig::small_for_tests();
    // Small blocks so runs span many zone-map entries.
    cfg.index_granularity = IndexGranularity::Bytes(1024);
    cfg
}

/// Fully interleaved inputs force the k-way fold for every entry; the
/// streaming pipe must keep the in-memory working set at "one head per
/// input + one pending + one open block" instead of materializing the
/// merged segment (§3.3).
#[test]
fn streaming_merge_bounds_peak_entries() {
    let cfg = merge_test_cfg();
    let (ssd, session) = flash();
    let runs = build_runs(&cfg, &ssd, &session, 4, 300, true);
    let (_, _, report) = compact_block_runs(&session, &ssd, &cfg, &schema(), &runs, None).unwrap();
    assert_eq!(report.entries_out, 1200);
    assert!(report.bytes_decoded > 0, "interleaved inputs must merge");
    assert!(
        report.peak_merge_entries > 0,
        "streaming fold must record its working set"
    );
    // 4 stream heads + 1 pending + at most one open block (~1 KiB of
    // ~25-byte entries ≈ 40). Far below the 1200 entries produced.
    assert!(
        report.peak_merge_entries <= 64,
        "peak {} not block-bounded",
        report.peak_merge_entries
    );
}

/// Disjoint inputs compile to pure Move segments; their chunk reads
/// must be issued ahead asynchronously, which the device observes as
/// queue depth > 1.
#[test]
fn parallel_move_segments_raise_device_queue_depth() {
    let cfg = merge_test_cfg();
    let (ssd, session) = flash();
    let runs = build_runs(&cfg, &ssd, &session, 6, 200, false);
    let (_, _, report) = compact_block_runs(&session, &ssd, &cfg, &schema(), &runs, None).unwrap();
    assert_eq!(report.bytes_decoded, 0, "disjoint inputs must all move");
    assert!(
        ssd.stats().max_queue_depth >= 3,
        "expected overlapped move reads, max depth {}",
        ssd.stats().max_queue_depth
    );
}

/// Run `f` on a thread of its own and fail if it is still running a
/// minute later — a hang has to fail the test, not the CI job.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = std::sync::mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = done.send(f());
    });
    match result.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(value) => value,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("still running after 60 s"),
        Err(_) => std::panic::resume_unwind(worker.join().expect_err("it sent nothing")),
    }
}

/// A `get` that runs beside a migration (it drew its timestamp after
/// the migration's, so the migration does not wait for it) finds the
/// record it asks for. The table grows at the front in every round, so
/// each chunk a migration commits shifts the logical index of every
/// later page: a lookup that resolves `key → logical page` and
/// `logical → physical` under two holds of the heap lock reads a
/// neighbour's page in between (a `None` for a record that exists) or
/// indexes past the end of the page map. The reader asks for one key
/// near the end of the table that no update ever touches.
#[test]
fn get_of_an_untouched_record_during_growing_migrations() {
    const RECORDS: u64 = 40_000;
    const ROUNDS: u64 = 40;
    const INSERTS: u64 = 400;
    const UNTOUCHED: u64 = (RECORDS - 500) * 2;

    let t = Table::new(MasmConfig::small_for_tests());
    t.load(RECORDS);
    let (gets, missing) = within_a_minute(move || {
        let migrating = std::sync::atomic::AtomicBool::new(true);
        let start = std::sync::Barrier::new(2);
        thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let session = t.dev.session();
                let (mut gets, mut missing) = (0u64, 0u64);
                start.wait();
                while migrating.load(std::sync::atomic::Ordering::SeqCst) {
                    let found = t.get_on(&session, UNTOUCHED).unwrap();
                    gets += 1;
                    missing += found.is_none() as u64;
                }
                (gets, missing)
            });
            start.wait();
            for round in 0..ROUNDS {
                for i in 0..INSERTS {
                    let key = (round * INSERTS + i) * 2 + 1;
                    t.put(key, UpdateOp::Insert(payload(key as u32))).unwrap();
                }
                t.migrate().unwrap();
            }
            migrating.store(false, std::sync::atomic::Ordering::SeqCst);
            reader.join().unwrap()
        })
    });
    assert!(gets > 0);
    assert_eq!(missing, 0, "of {gets} gets of a record that is there");
}

/// A reader never sees an update whose `apply_update` returned `Err`:
/// an update is logged before any reader can see it, so one whose log
/// append fails was never visible. On a fresh table per attempt, one
/// thread spins on `get(10)` while the main thread arms one log write
/// fault and replaces key 10. The window this closes is narrow: an
/// update pushed before its frame was written was seen in about one
/// attempt of a hundred, hence the attempts.
#[test]
fn a_reader_never_sees_an_update_whose_log_append_failed() {
    const ATTEMPTS: u32 = 5_000;
    const REFUSED: u32 = 777_777;
    let seen = within_a_minute(|| {
        let mut seen = 0u32;
        for _ in 0..ATTEMPTS {
            let t = Table::new(MasmConfig::small_for_tests());
            t.load(100);
            let (replacing, gets) = (AtomicBool::new(true), AtomicU32::new(0));
            seen += thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    let session = t.dev.session();
                    let mut saw = false;
                    while replacing.load(Ordering::SeqCst) {
                        let got = t.get_on(&session, 10).unwrap();
                        saw |= got.is_some_and(|r| value(&r) == REFUSED);
                        gets.fetch_add(1, Ordering::SeqCst);
                    }
                    saw
                });
                // Replace once the reader is spinning.
                while gets.load(Ordering::SeqCst) < 2 {
                    thread::yield_now();
                }
                t.dev.wal.inject_write_fault();
                let refused = t.put(10, UpdateOp::Replace(payload(REFUSED)));
                replacing.store(false, Ordering::SeqCst);
                assert!(refused.is_err(), "{refused:?}");
                reader.join().unwrap() as u32
            });
        }
        seen
    });
    assert_eq!(seen, 0, "attempts of {ATTEMPTS} that saw the refused value");
}

/// A migration never loses an update that was in flight: one thread
/// inserts distinct keys between the loaded ones while another loops
/// `migrate()`. A migration timestamp drawn above an update that is
/// drawn but not yet in the buffer stamps the pages above it, and the
/// page timestamps then hide it from `get` (a gap insert until the next
/// migration absorbs it, any other update for good). So after each
/// insert the inserting thread reads back that one and a few earlier
/// ones; afterwards, and after a crash, `get` and a full scan return
/// every acknowledged insert.
#[test]
fn a_migration_never_loses_an_update_that_was_in_flight() {
    const INSERTS: u64 = 20_000;
    // Which earlier inserts are read back after each one: a hidden
    // insert stays hidden until the next migration absorbs it.
    const BACK: [u64; 4] = [0, 32, 128, 512];
    let inserted = |i: u64| (i * 2 + 1, i as u32);
    let (mut t, unread, migrations) = within_a_minute(move || {
        let t = Table::new(MasmConfig::small_for_tests());
        t.load(INSERTS);
        let inserting = AtomicBool::new(true);
        let (unread, migrations) = thread::scope(|scope| {
            let migrator = scope.spawn(|| {
                let session = t.dev.session();
                let mut migrations = 0u64;
                while inserting.load(Ordering::SeqCst) {
                    migrations += t.engine().migrate(&session).unwrap().runs_migrated as u64;
                }
                migrations
            });
            let mut unread = Vec::new();
            for i in 0..INSERTS {
                let (key, v) = inserted(i);
                t.put(key, UpdateOp::Insert(payload(v))).unwrap();
                for back in BACK.iter().filter_map(|&lag| i.checked_sub(lag)) {
                    let (key, v) = inserted(back);
                    if t.get(key).unwrap().map(|r| value(&r)) != Some(v) {
                        unread.push(back);
                    }
                }
            }
            inserting.store(false, Ordering::SeqCst);
            (unread, migrator.join().unwrap())
        });
        (t, unread, migrations)
    });
    assert!(migrations > 0, "no migration ran beside the inserts");
    assert!(
        unread.is_empty(),
        "acknowledged, then not read back: {unread:?}"
    );
    let check = |t: &Table, when: &str| {
        let lost: Vec<u64> = (0..INSERTS)
            .filter(|&i| {
                let (key, v) = inserted(i);
                t.get(key).unwrap().map(|r| value(&r)) != Some(v)
            })
            .collect();
        assert!(lost.is_empty(), "{when}: get misses inserts {lost:?}");
        let rows = t.rows(0, Key::MAX);
        let odd = rows.iter().filter(|r| r.key % 2 == 1);
        assert!(
            odd.map(|r| (r.key, value(r)))
                .eq((0..INSERTS).map(inserted)),
            "{when}: a full scan misses inserts"
        );
        assert_eq!(rows.len() as u64, 2 * INSERTS, "{when}: a full scan");
    };
    check(&t, "after the migrations");
    t.crash(None).unwrap();
    check(&t, "after a crash");
}

/// Two [`overlapping_runs`] and a part-filled buffer over the same 64
/// keys, so every job has work to do; and the model.
fn two_runs_and_a_buffer(t: &mut Table) -> Model {
    let mut model = overlapping_runs(t, 2);
    for j in 0..64u32 {
        let op = UpdateOp::Replace(payload(3000 + j));
        t.step(&mut model, &Op::Put(j as u64 * 2, op));
    }
    model
}

/// Every read the fault tests hold to the model: a scan of everything,
/// and lookups of updated, untouched and absent keys.
fn reads(t: &Table, model: &Model, when: &str) {
    t.check(model);
    for key in [0u64, 2, 40, 126, 128, 398, 399] {
        let got = t
            .get(key)
            .unwrap_or_else(|e| panic!("get({key}) {when}: {e}"));
        assert_eq!(got, model.get(key), "get({key}) {when}");
    }
}

/// A migration failing mid-rewrite (heap write fault) must not wedge
/// the engine: the `migrating` claim is released on the error path,
/// scans keep serving the cached updates, and a retry after the fault
/// clears completes the migration.
#[test]
fn migration_fault_does_not_wedge() {
    let mut t = Table::new(MasmConfig::small_for_tests());
    let model = two_runs_and_a_buffer(&mut t);
    t.flush().unwrap();

    t.dev.disk.inject_write_fault();
    assert!(
        t.migrate().is_err(),
        "migration must surface the device fault"
    );
    // Reads keep serving: heap reads are unaffected and the cached
    // updates are still merged in.
    reads(&t, &model, "under the fault");

    // The claim was released: the retry completes.
    t.dev.disk.clear_write_fault();
    t.migrate().unwrap();
    assert_eq!(t.stats().runs.count, 0, "migration must consume all runs");
    reads(&t, &model, "after the migration");
}

/// Every maintenance job releases its claim on its error path: a
/// device write fault surfaces as `Err` and reads keep serving; once
/// the fault clears the same call succeeds and every update ends up
/// where the call was asked to put it — none stranded in a sealed
/// batch that nothing retries. An `apply_update` whose inline flush
/// fails returns `Err` and is not applied: the model takes a put only
/// when it returned `Ok`, and every read is held to the model.
#[test]
fn every_job_releases_its_claim_on_a_write_fault_and_succeeds_on_retry() {
    type Call = fn(&Table, &mut Model) -> MasmResult<()>;
    /// Put values no key has held yet until the buffer fills and
    /// `apply_update` flushes it inline.
    fn ingest_until_flush(t: &Table, model: &mut Model) -> MasmResult<()> {
        static NEXT: AtomicU32 = AtomicU32::new(10_000);
        let runs = t.engine().run_count();
        for j in (0..64u64).cycle() {
            let op = UpdateOp::Replace(payload(NEXT.fetch_add(1, Ordering::Relaxed)));
            let ts = t.put(j * 2, op.clone())?;
            model.apply(ts, j * 2, op);
            if t.engine().run_count() > runs {
                break;
            }
        }
        Ok(())
    }
    let flush: Call = |t, _| t.flush();
    let compact: Call = |t, _| t.compact().map(drop);
    let migrate: Call = |t, _| t.migrate().map(drop);
    let migrate_range: Call = |t, _| t.migrate_range(0, 40).map(drop);
    // (call, fault the SSD or else the disk, runs and buffered updates
    // the successful retry leaves)
    let cases = [
        ("flush_buffer", flush, true, 3, Some(0)),
        ("apply_update", ingest_until_flush, true, 3, None),
        ("compact_runs", compact, true, 1, Some(64)),
        // The SSD fails the drain's flush, the disk the rewrite.
        ("migrate", migrate, true, 0, Some(0)),
        ("migrate_range", migrate_range, false, 3, Some(0)),
    ];
    for (name, call, fault_ssd, runs_after, buffered_after) in cases {
        let mut t = Table::new(MasmConfig::small_for_tests());
        let mut model = two_runs_and_a_buffer(&mut t);
        let device = if fault_ssd {
            t.dev.ssd.clone()
        } else {
            t.dev.disk.clone()
        };
        device.inject_write_fault();
        let result = call(&t, &mut model);
        assert!(result.is_err(), "{name} must surface the write fault");
        reads(&t, &model, &format!("{name} under the fault"));

        device.clear_write_fault();
        call(&t, &mut model).unwrap_or_else(|e| panic!("{name} after the fault cleared: {e}"));
        assert_eq!(t.engine().run_count(), runs_after, "{name}: runs");
        if let Some(buffered) = buffered_after {
            assert_eq!(t.stats().buffer.updates, buffered, "{name}: buffered");
        }
        reads(&t, &model, &format!("{name} after the retry"));
    }
}

/// `rounds` runs over the same 64 keys of a 200-row table (so a
/// compaction has overlapping blocks to decode, not only blocks to
/// move), and the model of it.
fn overlapping_runs(t: &mut Table, rounds: u32) -> Model {
    let mut model = t.load(200);
    for round in 1..=rounds {
        for j in 0..64u32 {
            let op = UpdateOp::Replace(payload(1000 * round + j));
            t.step(&mut model, &Op::Put(j as u64 * 2, op));
        }
        t.flush().unwrap();
    }
    model
}

/// Migration and compaction read their runs past the block cache, so
/// with the flash device failing reads every block they want is an
/// error. That error comes back from the call — it used to be a panic
/// in `RunScan::next` — the claim is released, nothing half-merged is
/// installed, `get` answers or reports the error, and once the device
/// reads again the same calls succeed.
#[test]
fn flash_read_fault_during_maintenance_is_an_error_not_a_panic() {
    let mut t = Table::new(MasmConfig::small_for_tests());
    let model = overlapping_runs(&mut t, 3);
    let ssd = t.dev.ssd.clone();

    ssd.inject_read_fault();
    let faulted = |result: MasmResult<()>, what: &str| match result {
        Err(MasmError::Storage(_)) => {}
        other => panic!("{what} under a flash read fault: {other:?}"),
    };
    faulted(t.migrate().map(drop), "migrate");
    faulted(t.compact().map(drop), "compact_runs");
    faulted(t.migrate_range(0, 40).map(drop), "migrate_range");
    assert_eq!(
        t.engine().run_count(),
        3,
        "nothing was installed or retired"
    );
    for key in [0u64, 2, 126, 128, 398] {
        // No block of these runs was ever cached: the lookup of a key
        // they may hold has to read one.
        match t.get(key) {
            Ok(found) => assert_eq!(found, model.get(key), "get({key})"),
            Err(e) => assert!(matches!(e, MasmError::Storage(_)), "get({key}): {e}"),
        }
    }

    ssd.clear_read_fault();
    let report = t.compact().unwrap();
    assert_eq!((report.inputs, t.engine().run_count()), (3, 1));
    t.check(&model);
    let report = t.migrate().unwrap();
    assert_eq!((report.updates_applied, t.engine().run_count()), (64, 0));
    t.check(&model);
    assert_eq!(ssd.stats().random_writes, 0);
}

/// A run block that fails its checksum half-way through a migration:
/// the chunks joined before it are committed and stamped, the chunk
/// that met the truncated update stream is **not**, and the error comes
/// back. With the block readable again the table reads as the model —
/// committed pages skip by their timestamp what they already hold —
/// and the retry finishes the job.
#[test]
fn a_corrupt_run_block_stops_a_migration_between_chunks() {
    let mut spec = Spec::new(MasmConfig::small_for_tests());
    spec.heap.rewrite_chunk_pages = 2;
    let mut t = spec.open();
    let mut model = t.load(200);
    assert_eq!(
        t.engine().heap().num_pages(),
        6,
        "three chunks of two pages"
    );
    for i in 0..200u32 {
        let op = UpdateOp::Replace(payload(5000 + i));
        t.step(&mut model, &Op::Put(i as u64 * 2, op));
    }
    t.flush().unwrap();

    // One run from offset 0, most of it 1 KiB data blocks in key order:
    // its middle byte is in the block with the middle keys.
    assert_eq!(t.engine().run_count(), 1);
    let (ssd, session) = (t.dev.ssd.clone(), t.session.clone());
    let middle = ssd.len() / 2;
    let flip = || {
        let byte = session.read(&ssd, middle, 1).unwrap()[0];
        ssd.write_at(session.now(), middle, &[!byte]).unwrap();
    };
    flip();
    match t.migrate() {
        Err(MasmError::BlockRun(_)) => {}
        other => panic!("a migration over a corrupt block: {other:?}"),
    }
    let stamp = |key: Key| {
        let page_ts = t
            .engine()
            .heap()
            .with_page_of(&session, key, |p| p.timestamp());
        page_ts.unwrap().expect("a page")
    };
    assert!(stamp(0) > 0, "the first chunk was committed");
    assert_eq!(stamp(u64::MAX), 0, "the last was not");
    assert_eq!(t.engine().run_count(), 1, "the run is not retired");

    flip();
    t.check(&model);
    let report = t.migrate().unwrap();
    assert_eq!((report.updates_applied, t.engine().run_count()), (200, 0));
    t.check(&model);
}

/// A merge that scan setup runs (more runs than query pages) meets a
/// flash device that fails reads: the scan is refused with the error —
/// never a panic — nothing is installed, and once the device reads
/// again the next scan runs the merge and reads the model.
#[test]
fn flash_read_fault_in_a_scan_setup_merge_is_an_error_and_the_next_scan_merges() {
    let mut t = Table::new(MasmConfig::small_for_tests());
    let rounds = MasmConfig::small_for_tests().query_pages() as u32 + 1;
    let model = overlapping_runs(&mut t, rounds);
    let runs = t.engine().run_count();
    assert_eq!(runs, rounds as usize, "one run per round, none merged yet");

    let ssd = t.dev.ssd.clone();
    ssd.inject_read_fault();
    match t.scan(0, Key::MAX) {
        Err(MasmError::Storage(_)) => {}
        Err(e) => panic!("a scan setup merge under a flash read fault: {e}"),
        Ok(_) => panic!("a scan setup merge under a flash read fault succeeded"),
    }
    assert_eq!(t.engine().run_count(), runs, "nothing was installed");
    assert_eq!(t.stats().merge.inputs, 0);

    ssd.clear_read_fault();
    t.check(&model);
    assert!(t.engine().run_count() < runs, "the next scan merged");
    assert!(t.stats().merge.inputs > 0);
    assert_eq!(ssd.stats().random_writes, 0);
}
