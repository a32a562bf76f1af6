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
//! The crash image is `Devices::crash`: the WAL before the SSD, the
//! heap disk last. The engine always makes payload bytes
//! durable before appending the WAL record that names them (run bytes
//! before `RunCreated`, heap pages before `MapSplice`), so a WAL-first
//! image can name only payloads the later images contain — exactly the
//! guarantee a real single-cache-flush crash gives.

use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use masm_core::config::MasmConfig;
use masm_core::ts::Timestamp;
use masm_core::update::UpdateOp;
use masm_model::{payload, value, Devices, Op, Spec, Table};
use masm_pagestore::{Key, Record};
use masm_telemetry::{current_tid, TraceConfig, Tracer, TrackId};

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

/// Three ingest lanes hammer a table, each flushing the buffers it
/// fills on its own thread, and the main thread pulls the plug at three
/// load levels. Every crash
/// point must recover with no acked update lost, no random SSD write,
/// the same state when recovered twice, and a healthy engine
/// afterwards.
#[test]
fn crash_under_load_loses_no_acked_update() {
    const LANES: u64 = 3;
    const PER_LANE: u32 = 1200;
    const KEYS_PER_LANE: u64 = 40;
    let key = |lane: u64, j: u32| BASE + lane * 1000 + u64::from(j) % KEYS_PER_LANE;

    let table = Table::new(MasmConfig::small_for_tests());
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
    let acks = log.acks.into_inner().unwrap();
    for (ts, key, op) in &acks {
        model.apply(*ts, *key, op.clone());
    }

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
        let (recovered, report) = recover();
        assert!(
            report.wal_records_replayed > 0,
            "crash {c}: nothing replayed?"
        );

        // The flight recording carries the recovery on the recovering
        // thread's track: one `recovery` span, a torn-tail instant
        // exactly when a tail was truncated, and a redo instant when a
        // migration was re-driven.
        let records = tracer.take_records();
        let here = TrackId { tid: current_tid() };
        let recorded = |name: &str, when: bool| {
            let tracks: Vec<TrackId> = records
                .iter()
                .filter(|r| r.name == name)
                .map(|r| r.track)
                .collect();
            let want = if when { vec![here] } else { vec![] };
            assert_eq!(tracks, want, "crash {c}: {name}");
        };
        recorded("recovery", true);
        recorded("recovery.torn_tail", report.wal_torn_bytes > 0);
        recorded("recovery.migration_redo", report.redid_migration);

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
        let random = recovered.stats().ssd.random_writes;
        assert_eq!(
            random, 0,
            "crash {c}: random writes in the recovered engine"
        );
    }
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
        let cut = g.dev.wal.len() * frac / 10_000;
        let image = g.dev.crash_with(cut);
        let recover = || g.spec.clone().recover(image.clone(), None);
        let (t, report) = recover().expect("every WAL prefix must recover");
        prop_assert!(report.wal_torn_bytes <= cut);
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
