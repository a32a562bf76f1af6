//! The table fixture: one door for a standalone engine or N shards.

use std::sync::Arc;

use masm_core::engine::MigrationReport;
use masm_core::ts::Timestamp;
use masm_core::update::UpdateOp;
use masm_core::{
    EngineStats, MasmConfig, MasmEngine, MasmError, MasmResult, MergeScan, RecoveryReport,
    ShardedEngine, ShardedScan,
};
use masm_pagestore::{HeapConfig, Key, Record, TableHeap};
use masm_storage::{DeviceProfile, MergeReport, SessionHandle, SimClock, SimDevice};
use masm_telemetry::Tracer;

use crate::{rows, schema, Model};

/// A table's devices, all on one clock: the heap disk and, per shard, a
/// flash device for runs and one for the redo log.
#[derive(Clone)]
pub struct Devices {
    /// The clock every device runs on.
    pub clock: SimClock,
    /// The heap's disk, shared by every shard.
    pub disk: SimDevice,
    /// Per shard, the flash device its runs live on.
    pub ssds: Vec<SimDevice>,
    /// Per shard, its redo log.
    pub wals: Vec<SimDevice>,
}

impl Devices {
    /// Fresh in-memory devices for `shards` shards.
    pub fn new(shards: usize) -> Devices {
        let clock = SimClock::new();
        let device = |profile| SimDevice::in_memory(profile, clock.clone());
        let flash = |_| device(DeviceProfile::ssd_x25e());
        Devices {
            disk: device(DeviceProfile::hdd_barracuda()),
            ssds: (0..shards).map(flash).collect(),
            wals: (0..shards).map(flash).collect(),
            clock,
        }
    }

    /// A fresh session on the devices' clock.
    pub fn session(&self) -> SessionHandle {
        SessionHandle::fresh(self.clock.clone())
    }

    /// The devices as a crash leaves them, also while writers run: per
    /// shard the log before the flash, the disk last. The engine makes
    /// run bytes and heap pages durable before it logs them, so a log
    /// image names only bytes the later images hold.
    pub fn crash(&self) -> Devices {
        self.crash_with(SimDevice::len)
    }

    /// [`Devices::crash`] with each log cut to its first `wal_len(log)`
    /// bytes: the crash at an exact log byte, mid-frame included.
    pub fn crash_with(&self, wal_len: impl Fn(&SimDevice) -> u64) -> Devices {
        let image = |dev: &SimDevice, len| {
            dev.snapshot_prefix(self.clock.clone(), len)
                .expect("a device image")
        };
        let (mut ssds, mut wals) = (Vec::new(), Vec::new());
        for (ssd, wal) in self.ssds.iter().zip(&self.wals) {
            wals.push(image(wal, wal_len(wal)));
            ssds.push(image(ssd, ssd.len()));
        }
        Devices {
            disk: image(&self.disk, self.disk.len()),
            ssds,
            wals,
            clock: self.clock.clone(),
        }
    }
}

/// What a table is: its configuration, the door it is opened through,
/// and its heap's layout.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The engine configuration; `sharding.splits` sets the shards.
    pub cfg: MasmConfig,
    /// Through [`ShardedEngine`] (one shard per split key, plus one), or
    /// a standalone [`MasmEngine`].
    pub sharded: bool,
    /// The heap's layout.
    pub heap: HeapConfig,
}

impl Spec {
    /// `cfg` through either door, over the default heap layout.
    pub fn new(cfg: MasmConfig, sharded: bool) -> Spec {
        Spec {
            cfg,
            sharded,
            heap: HeapConfig::default(),
        }
    }

    /// An empty table over fresh devices.
    pub fn open(self) -> Table {
        let dev = Devices::new(self.cfg.sharding.splits.len() + 1);
        let heap = Arc::new(TableHeap::new(dev.disk.clone(), self.heap.clone()));
        let (s, cfg) = (schema(), self.cfg.clone());
        let door = if self.sharded {
            let (ssds, wals) = (dev.ssds.clone(), dev.wals.clone());
            Door::Sharded(ShardedEngine::new(heap, ssds, wals, s, cfg).expect("a valid config"))
        } else {
            let (ssd, wal) = (dev.ssds[0].clone(), dev.wals[0].clone());
            Door::Standalone(MasmEngine::new(heap, ssd, wal, s, cfg).expect("a valid config"))
        };
        Table::over(self, dev, door)
    }

    /// Recover a table from `dev` through this spec's door, `tracer`
    /// flight-recording the recovery; also what recovery reported, per
    /// shard.
    pub fn recover(
        self,
        dev: Devices,
        tracer: Option<&Arc<Tracer>>,
    ) -> MasmResult<(Table, Vec<RecoveryReport>)> {
        let heap = Arc::new(TableHeap::new(dev.disk.clone(), self.heap.clone()));
        let (s, cfg) = (schema(), self.cfg.clone());
        let (door, reports) = if self.sharded {
            let (ssds, wals) = (dev.ssds.clone(), dev.wals.clone());
            let (engine, report) = ShardedEngine::recover(heap, ssds, wals, s, cfg, tracer)?;
            (Door::Sharded(engine), report.per_shard)
        } else {
            let (ssd, wal) = (dev.ssds[0].clone(), dev.wals[0].clone());
            let tracer = tracer.cloned();
            let (engine, report) = MasmEngine::recover_traced(heap, ssd, wal, s, cfg, tracer)?;
            (Door::Standalone(engine), vec![report])
        };
        Ok((Table::over(self, dev, door), reports))
    }
}

enum Door {
    Standalone(Arc<MasmEngine>),
    Sharded(Arc<ShardedEngine>),
}

/// A table over in-memory devices: a standalone engine or N shards
/// behind one set of verbs. The verbs without a session run on the
/// table's own.
pub struct Table {
    /// Its devices.
    pub dev: Devices,
    /// What it is: [`Spec::recover`] reopens it.
    pub spec: Spec,
    /// The session the table's own verbs run on.
    pub session: SessionHandle,
    door: Door,
}

impl Table {
    /// A standalone engine with `cfg` over fresh devices, no rows yet.
    pub fn new(cfg: MasmConfig) -> Table {
        Spec::new(cfg, false).open()
    }

    /// A [`ShardedEngine`] split at `cfg.sharding.splits` over fresh
    /// devices, no rows yet; no split keys is the one-shard deployment.
    pub fn sharded(cfg: MasmConfig) -> Table {
        Spec::new(cfg, true).open()
    }

    fn over(spec: Spec, dev: Devices, door: Door) -> Table {
        Table {
            session: dev.session(),
            dev,
            spec,
            door,
        }
    }

    /// Bulk-load [`rows`]`(n)` at fill 1.0; the model of the loaded table.
    pub fn load(&self, n: u64) -> Model {
        match &self.door {
            Door::Standalone(e) => e.load_table(&self.session, rows(n), 1.0),
            Door::Sharded(e) => e.load_table(&self.session, rows(n), 1.0),
        }
        .expect("bulk load");
        Model::new(rows(n))
    }

    /// The engine of a standalone table.
    pub fn engine(&self) -> &Arc<MasmEngine> {
        match &self.door {
            Door::Standalone(e) => e,
            Door::Sharded(_) => panic!("a sharded table has no one engine: use `shards`"),
        }
    }

    /// The engine of a sharded table.
    pub fn sharded_engine(&self) -> &Arc<ShardedEngine> {
        match &self.door {
            Door::Sharded(e) => e,
            Door::Standalone(_) => panic!("a standalone table: use `engine`"),
        }
    }

    /// The engines, by shard id; a standalone table is one shard.
    pub fn shards(&self) -> &[Arc<MasmEngine>] {
        match &self.door {
            Door::Standalone(e) => std::slice::from_ref(e),
            Door::Sharded(e) => e.shards(),
        }
    }

    /// Apply one update; its commit timestamp.
    pub fn put(&self, key: Key, op: UpdateOp) -> MasmResult<Timestamp> {
        self.put_on(&self.session, key, op)
    }

    /// [`Table::put`] on `session`.
    pub fn put_on(&self, session: &SessionHandle, key: Key, op: UpdateOp) -> MasmResult<Timestamp> {
        match &self.door {
            Door::Standalone(e) => e.apply_update(session, key, op),
            Door::Sharded(e) => e.put(session, key, op),
        }
    }

    /// Point lookup.
    pub fn get(&self, key: Key) -> MasmResult<Option<Record>> {
        self.get_on(&self.session, key)
    }

    /// [`Table::get`] on `session`.
    pub fn get_on(&self, session: &SessionHandle, key: Key) -> MasmResult<Option<Record>> {
        match &self.door {
            Door::Standalone(e) => e.get(session, key),
            Door::Sharded(e) => e.get(session, key),
        }
    }

    /// Range scan of `[begin, end]` at a fresh timestamp.
    pub fn scan(&self, begin: Key, end: Key) -> MasmResult<Scan> {
        self.scan_at(&self.session, begin, end, None)
    }

    /// Range scan of `[begin, end]` on `session` (a sharded scan brings
    /// sessions of its own), at `as_of` or a fresh timestamp.
    pub fn scan_at(
        &self,
        session: &SessionHandle,
        begin: Key,
        end: Key,
        as_of: Option<Timestamp>,
    ) -> MasmResult<Scan> {
        Ok(match &self.door {
            Door::Standalone(e) => {
                Scan::Merge(e.begin_scan_at(session.clone(), begin, end, as_of, Vec::new())?)
            }
            Door::Sharded(e) => Scan::Sharded(e.scan_at(begin, end, as_of)?),
        })
    }

    /// Every record of `[begin, end]` at a fresh timestamp; a read error
    /// fails the test.
    pub fn rows(&self, begin: Key, end: Key) -> Vec<Record> {
        let mut scan = self.scan(begin, end).expect("open a scan");
        let rows = scan.by_ref().collect();
        if let Some(e) = scan.error() {
            panic!("a scan of [{begin}, {end}] failed: {e}");
        }
        rows
    }

    /// Turn every shard's update buffer into a run.
    pub fn flush(&self) -> MasmResult<()> {
        match &self.door {
            Door::Standalone(e) => e.flush_buffer(&self.session),
            Door::Sharded(e) => e.flush_all(&self.session),
        }
    }

    /// Compact every shard's runs; per shard, the merge's report.
    pub fn compact(&self) -> MasmResult<Vec<MergeReport>> {
        let shards = self.shards().iter();
        shards.map(|e| e.compact_runs(&self.session)).collect()
    }

    /// Migrate: the standalone engine, or every shard whose cached
    /// updates reached the migration threshold; their reports.
    pub fn migrate(&self) -> MasmResult<Vec<MigrationReport>> {
        match &self.door {
            Door::Standalone(e) => Ok(vec![e.migrate(&self.session)?]),
            Door::Sharded(e) => e.migrate_all(&self.session),
        }
    }

    /// Migrate the heap pages overlapping `[begin, end]`, in every
    /// shard; their reports.
    pub fn migrate_range(&self, begin: Key, end: Key) -> MasmResult<Vec<MigrationReport>> {
        let shards = self.shards().iter();
        shards
            .map(|e| e.migrate_range(&self.session, begin, end))
            .collect()
    }

    /// Pull the plug ([`Devices::crash`]) and recover from the images,
    /// `tracer` flight-recording the recovery; what recovery reported,
    /// per shard. The table then runs on the images, on the same clock.
    /// An image that does not recover is an error, and leaves the table
    /// as it was.
    pub fn crash(&mut self, tracer: Option<&Arc<Tracer>>) -> MasmResult<Vec<RecoveryReport>> {
        let image = self.dev.crash();
        let (recovered, reports) = self.spec.clone().recover(image, tracer)?;
        self.shutdown();
        *self = recovered;
        Ok(reports)
    }

    /// The engine's statistics, summed over the shards.
    pub fn stats(&self) -> EngineStats {
        match &self.door {
            Door::Standalone(e) => e.stats(),
            Door::Sharded(e) => e.stats().total,
        }
    }

    /// Drain and join the worker pool, if there is one.
    pub fn shutdown(&self) {
        match &self.door {
            Door::Standalone(e) => e.shutdown(),
            Door::Sharded(e) => e.shutdown(),
        }
    }
}

/// A range scan through either door.
pub enum Scan {
    /// A standalone engine's scan.
    Merge(MergeScan),
    /// A cross-shard scan.
    Sharded(ShardedScan),
}

impl Scan {
    /// The scan's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        match self {
            Scan::Merge(s) => s.timestamp(),
            Scan::Sharded(s) => s.timestamp(),
        }
    }

    /// The read error that ended the scan early, if one did.
    pub fn error(&self) -> Option<&MasmError> {
        match self {
            Scan::Merge(s) => s.error(),
            Scan::Sharded(s) => s.error(),
        }
    }
}

impl Iterator for Scan {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        match self {
            Scan::Merge(s) => s.next(),
            Scan::Sharded(s) => s.next(),
        }
    }
}
