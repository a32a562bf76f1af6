//! Crash-under-load torture tests: take crash images of the devices of
//! a live, concurrently-ingesting engine at arbitrary moments ("pull
//! the plug"), recover from them, and verify the recovery contract:
//!
//! * every *acknowledged* update survives — an update whose `put`
//!   returned before the crash is in the recovered state (the WAL's
//!   stable-tail group commit guarantees its record is inside the
//!   contiguous valid log prefix),
//! * recovery never panics and never loses acked data for *any* crash
//!   point, including cuts through the middle of a WAL record (torn
//!   tails are truncated, not fatal),
//! * the recovered engine keeps design goal 2: `random_writes == 0`
//!   on the recovered devices, through migration redo and fresh
//!   post-recovery ingest (write heads are re-primed at the recovered
//!   append points),
//! * recovery is idempotent: recovering, crashing immediately, and
//!   recovering again yields the same state.
//!
//! The crash image is `Devices::crash`: per shard the WAL before the
//! SSD, the heap disk last. The engine always makes payload bytes
//! durable before appending the WAL record that names them (run bytes
//! before `RunCreated`, heap pages before `MapSplice`), so a WAL-first
//! image can name only payloads the later images contain — exactly the
//! guarantee a real single-cache-flush crash gives.

use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use masm_core::config::{IndexGranularity, MasmConfig};
use masm_core::ts::Timestamp;
use masm_core::update::UpdateOp;
use masm_core::{MasmEngine, MasmError, RecoveryReport};
use masm_model::{payload, value, Devices, Op, Spec, Table};
use masm_pagestore::{HeapConfig, Key, Record, TableHeap};
use masm_telemetry::{TraceConfig, Tracer};

const BASE: u64 = 100_000;

/// Every lane's acknowledged puts, in the order they returned.
#[derive(Default)]
struct AckLog {
    acks: Mutex<Vec<(Timestamp, Key, UpdateOp)>>,
    grew: Condvar,
}

impl AckLog {
    /// A put returned: its WAL record is durable, so any crash image
    /// taken after this push must contain it.
    fn push(&self, ack: (Timestamp, Key, UpdateOp)) {
        self.acks.lock().unwrap().push(ack);
        self.grew.notify_all();
    }

    /// Block until `n` puts were acknowledged; how many were by then.
    fn wait_for(&self, n: usize) -> usize {
        let acks = self.acks.lock().unwrap();
        let stalled = Duration::from_secs(60);
        let (acks, wait) = self
            .grew
            .wait_timeout_while(acks, stalled, |a| a.len() < n)
            .unwrap();
        assert!(
            !wait.timed_out(),
            "the lanes stalled at {} acks",
            acks.len()
        );
        acks.len()
    }
}

/// Three ingest lanes hammer a table with live background workers — a
/// standalone engine or one shard per lane — and the main thread pulls
/// the plug at three load levels. Every crash point must recover with
/// no acked update lost, no random SSD write, the same state when
/// recovered twice, and a healthy engine afterwards.
fn crash_under_load_loses_no_acked_update(sharded: bool) {
    const LANES: u64 = 3;
    const PER_LANE: u32 = 1200;
    const KEYS_PER_LANE: u64 = 40;
    let key = |lane: u64, j: u32| BASE + lane * 1000 + u64::from(j) % KEYS_PER_LANE;

    let mut cfg = MasmConfig::small_for_tests();
    cfg.background_workers = 2;
    if sharded {
        // Lane k writes into shard k's key range.
        cfg.sharding.splits = vec![101_000, 102_000];
    }
    let table = Spec::new(cfg, sharded).open();
    let mut model = table.load(100);

    let log = AckLog::default();
    let crashes: Vec<(usize, Devices)> = thread::scope(|scope| {
        for lane in 0..LANES {
            let (table, log) = (&table, &log);
            scope.spawn(move || {
                let session = table.dev.session();
                for j in 0..PER_LANE {
                    let (key, op) = (key(lane, j), UpdateOp::Replace(payload(j)));
                    let ts = table.put_on(&session, key, op.clone()).unwrap();
                    log.push((ts, key, op));
                }
            });
        }
        // Pull the plug at three points while the lanes are running.
        let crash = |threshold| (log.wait_for(threshold), table.dev.crash());
        [500, 1800, 3300].map(crash).into()
    });
    table.shutdown();
    let acks = log.acks.into_inner().unwrap();
    for (ts, key, op) in &acks {
        model.apply(*ts, *key, op.clone());
    }

    let shards = table.shards().len();
    for (c, (acked, image)) in crashes.into_iter().enumerate() {
        // A queue large enough that a migration redo cannot overflow it.
        let tracer = Arc::new(Tracer::new(TraceConfig {
            ring_capacity: 1 << 20,
            ..TraceConfig::default()
        }));
        let recover = || {
            let spec = table.spec.clone();
            spec.recover(image.clone(), Some(&tracer))
                .unwrap_or_else(|e| panic!("crash point {c} failed to recover: {e}"))
        };
        let (recovered, reports) = recover();
        assert_eq!(reports.len(), shards);
        assert!(
            reports.iter().any(|r| r.wal_records_replayed > 0),
            "crash {c}: nothing replayed?"
        );

        // The flight recording carries the recovery on each shard's own
        // track (pid = shard): one `recovery` span per shard, a
        // torn-tail instant exactly where a tail was truncated, and one
        // redo instant per re-driven migration.
        let records = tracer.take_records();
        let on_shards = |name: &str, on: fn(&RecoveryReport) -> bool| {
            let named = records.iter().filter(|r| r.name == name);
            let mut pids: Vec<u32> = named.map(|r| r.track.pid).collect();
            pids.sort_unstable();
            let want: Vec<u32> = (0..shards as u32)
                .filter(|&i| on(&reports[i as usize]))
                .collect();
            assert_eq!(pids, want, "crash {c}: {name}");
        };
        on_shards("recovery", |_| true);
        on_shards("recovery.torn_tail", |r| r.wal_torn_bytes > 0);
        on_shards("recovery.migration_redo", |r| r.redid_migration);

        // Every update acked before the crash is in the recovered state,
        // possibly superseded by a newer durable-but-unacked one — never
        // by an older one, and never a value nobody wrote.
        let rows = recovered.rows(BASE, Key::MAX);
        let floor = acks[..acked].iter().map(|(ts, key, _)| (*key, *ts));
        model
            .check_recovered(BASE, Key::MAX, &rows, floor)
            .unwrap_or_else(|e| panic!("crash {c}: {e}"));

        // Crash again immediately: recovering the devices the first
        // recovery left behind reproduces the same state.
        recovered.shutdown();
        drop(recovered);
        let (recovered, _) = recover();
        assert_eq!(
            recovered.rows(BASE, Key::MAX),
            rows,
            "crash {c}: double recovery"
        );

        // The recovered engine is live: more ingest, a flush, a
        // consistent scan — all with sequential-only SSD I/O on the
        // crash images (heads re-primed by recovery).
        for lane in 0..LANES {
            for j in 0..50u32 {
                let op = UpdateOp::Replace(payload(PER_LANE + j));
                recovered.put(key(lane, j), op).unwrap();
            }
        }
        recovered.flush().unwrap();
        let after = recovered.rows(BASE, Key::MAX);
        assert!(
            after.windows(2).all(|w| w[0].key < w[1].key),
            "crash {c}: scan order"
        );
        for (i, shard) in recovered.shards().iter().enumerate() {
            let random = shard.stats().ssd.random_writes;
            assert_eq!(random, 0, "crash {c}: random writes in recovered shard {i}");
        }
        recovered.shutdown();
    }
}

/// One shard per lane, opened and recovered through `ShardedEngine`.
#[test]
fn sharded_crash_under_load_loses_no_acked_update() {
    crash_under_load_loses_no_acked_update(true);
}

/// The same lanes on one engine: `MasmEngine::new` / `recover_traced`.
#[test]
fn unsharded_crash_under_load_loses_no_acked_update() {
    crash_under_load_loses_no_acked_update(false);
}

/// The pre-crash state of the WAL-prefix sweep: a serial workload with
/// a buffer flush and a migration in the middle, its devices frozen,
/// and every state a serial prefix of its updates leaves.
struct Golden {
    spec: Spec,
    dev: Devices,
    prefixes: Vec<Vec<Record>>,
}

const SWEEP_UPDATES: u32 = 48;
const SWEEP_KEYS: u64 = 10;

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let mut t = Table::new(MasmConfig::small_for_tests());
        let mut model = t.load(50);
        for j in 0..SWEEP_UPDATES {
            let key = BASE + u64::from(j) % SWEEP_KEYS;
            t.step(&mut model, &Op::Put(key, UpdateOp::Replace(payload(j))));
            // Force run creation and an in-place migration mid-stream so
            // prefix cuts land inside every record type, not just
            // updates.
            if j == 19 {
                t.step(&mut model, &Op::Flush);
            }
            if j == 33 {
                t.step(&mut model, &Op::Migrate);
            }
        }
        Golden {
            spec: t.spec.clone(),
            dev: t.dev.clone(),
            prefixes: model.serial_prefixes(BASE, Key::MAX),
        }
    })
}

proptest! {
    /// Crash at *any* WAL byte offset — including mid-record torn
    /// tails — and recovery must (a) never panic or error, (b) produce
    /// exactly the state after some prefix of the serial update
    /// stream, and (c) be idempotent under an immediate second crash
    /// and recovery.
    #[test]
    fn recovery_at_every_wal_prefix_is_a_serial_prefix(frac in 0u64..=10_000) {
        let g = golden();
        let cut = g.dev.wals[0].len() * frac / 10_000;
        let image = g.dev.crash_with(|_| cut);
        let recover = || g.spec.clone().recover(image.clone(), None);
        let (t, reports) = recover().expect("every WAL prefix must recover");
        prop_assert!(reports[0].wal_torn_bytes <= cut);
        let got = t.rows(BASE, Key::MAX);
        prop_assert!(
            g.prefixes.contains(&got),
            "cut {} recovered a state that is no serial prefix: {:?}",
            cut,
            got.iter().map(|r| (r.key, value(r))).collect::<Vec<_>>()
        );

        // Crash again immediately (no new updates): recovering the
        // same devices a second time reproduces the same state.
        drop(t);
        let (again, _) = recover().expect("double recovery must succeed");
        prop_assert_eq!(got, again.rows(BASE, Key::MAX), "double recovery diverged at cut {}", cut);
    }
}

/// A 2-shard deployment's manifests pin shard identity and config: a
/// swapped device set, a missing manifest, and a layout-shaping config
/// change must all be rejected before any run bytes are trusted.
#[test]
fn manifest_validation_rejects_mismatched_deployments() {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![1000];
    let t = Table::sharded(cfg);
    t.put(1, UpdateOp::Delete).unwrap();
    t.put(2000, UpdateOp::Delete).unwrap();
    let (spec, dev) = (t.spec.clone(), t.dev.clone());
    drop(t);
    let rejected = |spec: Spec, dev: Devices| match spec.recover(dev, None) {
        Ok(_) => panic!("a mismatched deployment recovered"),
        Err(e) => e.to_string(),
    };

    // Swapped shard devices: each manifest names its true shard id.
    let mut swapped = dev.clone();
    swapped.ssds.reverse();
    swapped.wals.reverse();
    let err = rejected(spec.clone(), swapped);
    assert!(err.contains("manifest"), "{err}");

    // A layout-shaping config change invalidates the fingerprint.
    let mut changed = spec.clone();
    changed.cfg.index_granularity = IndexGranularity::Bytes(2048);
    let err = rejected(changed, dev.clone());
    assert!(err.contains("fingerprint"), "{err}");

    // The untouched set still recovers.
    let (recovered, reports) = spec.recover(dev, None).unwrap();
    assert_eq!(reports.len(), 2);
    let updates: u64 = reports.iter().map(|r| r.updates_recovered).sum();
    assert_eq!(updates, 2);
    recovered.shutdown();
}

/// A WAL without a manifest (a standalone engine's log) cannot be
/// recovered as a sharded deployment.
#[test]
fn sharded_recovery_requires_a_manifest() {
    let t = Table::new(MasmConfig::small_for_tests());
    t.put(7, UpdateOp::Delete).unwrap();
    let spec = Spec {
        sharded: true,
        ..t.spec.clone()
    };
    let Err(err) = spec.recover(t.dev.clone(), None) else {
        panic!("manifest-less WAL must be rejected");
    };
    assert!(err.to_string().contains("manifest"), "{err}");
}

/// The converse: one shard's devices are not a table. Shard 0's log
/// holds neither shard 1's runs nor the heap splices of shard 1's
/// migrations, so opened alone it would serve stale pages and believe
/// it owns the whole keyspace — `MasmEngine::recover` once returned
/// `Ok` here, and key 150 read 75.
#[test]
fn a_shards_log_does_not_open_as_a_standalone_table() {
    let mut cfg = MasmConfig::small_for_tests();
    cfg.sharding.splits = vec![100];
    let t = Table::sharded(cfg.clone());
    t.load(100);
    t.put(150, UpdateOp::Replace(payload(2000))).unwrap();
    t.flush().unwrap();
    t.shards()[1].migrate(&t.session).unwrap();

    let image = t.dev.crash();
    let heap = Arc::new(TableHeap::new(image.disk.clone(), HeapConfig::default()));
    let (ssd, wal) = (image.ssds[0].clone(), image.wals[0].clone());
    let mut standalone = cfg;
    standalone.sharding.splits.clear();
    let err = MasmEngine::recover(
        Arc::clone(&heap),
        ssd,
        wal,
        masm_model::schema(),
        standalone,
    )
    .expect_err("shard 0 of 2 is not a standalone table");
    assert!(matches!(err, MasmError::Config(_)), "{err:?}");
    assert!(err.to_string().contains("shard 0 of 2"), "{err}");
    assert_eq!(heap.num_pages(), 0, "refused before any heap event");

    let (recovered, _) = t.spec.clone().recover(image, None).unwrap();
    let got = recovered.get(150).unwrap().expect("key 150");
    assert_eq!(value(&got), 2000);
}
