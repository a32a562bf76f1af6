//! The table fixture: one engine over fresh in-memory devices.

use std::sync::Arc;

use masm_core::engine::MigrationReport;
use masm_core::ts::Timestamp;
use masm_core::update::UpdateOp;
use masm_core::{EngineStats, MasmConfig, MasmEngine, MasmResult, MergeScan, RecoveryReport};
use masm_pagestore::{HeapConfig, Key, Record, TableHeap};
use masm_storage::{DeviceProfile, MergeReport, SessionHandle, SimClock, SimDevice};
use masm_telemetry::Tracer;

use crate::{rows, schema, Model};

/// A table's devices, all on one clock: the heap disk, the flash device
/// its runs live on and the one its redo log lives on.
#[derive(Clone)]
pub struct Devices {
    /// The clock every device runs on.
    pub clock: SimClock,
    /// The heap's disk.
    pub disk: SimDevice,
    /// The flash device the runs live on.
    pub ssd: SimDevice,
    /// The redo log.
    pub wal: SimDevice,
}

/// Fresh in-memory devices.
impl Default for Devices {
    fn default() -> Devices {
        let clock = SimClock::new();
        let device = |profile| SimDevice::in_memory(profile, clock.clone());
        Devices {
            disk: device(DeviceProfile::hdd_barracuda()),
            ssd: device(DeviceProfile::ssd_x25e()),
            wal: device(DeviceProfile::ssd_x25e()),
            clock,
        }
    }
}

impl Devices {
    /// A fresh session on the devices' clock.
    pub fn session(&self) -> SessionHandle {
        SessionHandle::fresh(self.clock.clone())
    }

    /// The devices as a crash leaves them, also while writers run: the
    /// log before the flash, the disk last. The engine makes run bytes
    /// and heap pages durable before it logs them, so a log image names
    /// only bytes the later images hold.
    pub fn crash(&self) -> Devices {
        self.crash_with(self.wal.len())
    }

    /// [`Devices::crash`] with the log cut to its first `wal_len` bytes:
    /// the crash at an exact log byte, mid-frame included.
    pub fn crash_with(&self, wal_len: u64) -> Devices {
        let image = |dev: &SimDevice, len| {
            dev.snapshot_prefix(self.clock.clone(), len)
                .expect("a device image")
        };
        let wal = image(&self.wal, wal_len);
        let ssd = image(&self.ssd, self.ssd.len());
        Devices {
            disk: image(&self.disk, self.disk.len()),
            ssd,
            wal,
            clock: self.clock.clone(),
        }
    }
}

/// What a table is: its configuration and its heap's layout.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The engine configuration.
    pub cfg: MasmConfig,
    /// The heap's layout.
    pub heap: HeapConfig,
}

impl Spec {
    /// `cfg` over the default heap layout.
    pub fn new(cfg: MasmConfig) -> Spec {
        Spec {
            cfg,
            heap: HeapConfig::default(),
        }
    }

    /// An empty table over fresh devices.
    pub fn open(self) -> Table {
        let dev = Devices::default();
        let heap = Arc::new(TableHeap::new(dev.disk.clone(), self.heap.clone()));
        let (ssd, wal, cfg) = (dev.ssd.clone(), dev.wal.clone(), self.cfg.clone());
        let engine = MasmEngine::new(heap, ssd, wal, schema(), cfg).expect("a valid config");
        Table::over(self, dev, engine)
    }

    /// Recover a table from `dev`, `tracer` flight-recording the
    /// recovery; also what recovery reported.
    pub fn recover(
        self,
        dev: Devices,
        tracer: Option<&Arc<Tracer>>,
    ) -> MasmResult<(Table, RecoveryReport)> {
        let heap = Arc::new(TableHeap::new(dev.disk.clone(), self.heap.clone()));
        let (ssd, wal, cfg) = (dev.ssd.clone(), dev.wal.clone(), self.cfg.clone());
        let tracer = tracer.cloned();
        let (engine, report) = MasmEngine::recover_traced(heap, ssd, wal, schema(), cfg, tracer)?;
        Ok((Table::over(self, dev, engine), report))
    }
}

/// A table over in-memory devices. The verbs without a session run on
/// the table's own.
pub struct Table {
    /// Its devices.
    pub dev: Devices,
    /// What it is: [`Spec::recover`] reopens it.
    pub spec: Spec,
    /// The session the table's own verbs run on.
    pub session: SessionHandle,
    engine: Arc<MasmEngine>,
}

impl Table {
    /// An engine with `cfg` over fresh devices, no rows yet.
    pub fn new(cfg: MasmConfig) -> Table {
        Spec::new(cfg).open()
    }

    fn over(spec: Spec, dev: Devices, engine: Arc<MasmEngine>) -> Table {
        Table {
            session: dev.session(),
            dev,
            spec,
            engine,
        }
    }

    /// Bulk-load [`rows`]`(n)` at fill 1.0; the model of the loaded table.
    pub fn load(&self, n: u64) -> Model {
        self.engine
            .load_table(&self.session, rows(n), 1.0)
            .expect("bulk load");
        Model::new(rows(n))
    }

    /// The engine.
    pub fn engine(&self) -> &Arc<MasmEngine> {
        &self.engine
    }

    /// Apply one update; its commit timestamp.
    pub fn put(&self, key: Key, op: UpdateOp) -> MasmResult<Timestamp> {
        self.put_on(&self.session, key, op)
    }

    /// [`Table::put`] on `session`.
    pub fn put_on(&self, session: &SessionHandle, key: Key, op: UpdateOp) -> MasmResult<Timestamp> {
        self.engine.apply_update(session, key, op)
    }

    /// Point lookup.
    pub fn get(&self, key: Key) -> MasmResult<Option<Record>> {
        self.get_on(&self.session, key)
    }

    /// [`Table::get`] on `session`.
    pub fn get_on(&self, session: &SessionHandle, key: Key) -> MasmResult<Option<Record>> {
        self.engine.get(session, key)
    }

    /// Range scan of `[begin, end]` at a fresh timestamp.
    pub fn scan(&self, begin: Key, end: Key) -> MasmResult<MergeScan> {
        self.scan_at(&self.session, begin, end, None)
    }

    /// Range scan of `[begin, end]` on `session`, at `as_of` or a fresh
    /// timestamp.
    pub fn scan_at(
        &self,
        session: &SessionHandle,
        begin: Key,
        end: Key,
        as_of: Option<Timestamp>,
    ) -> MasmResult<MergeScan> {
        self.engine
            .begin_scan_at(session.clone(), begin, end, as_of, Vec::new())
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

    /// Turn the update buffer into a run.
    pub fn flush(&self) -> MasmResult<()> {
        self.engine.flush_buffer(&self.session)
    }

    /// Compact the runs; the merge's report.
    pub fn compact(&self) -> MasmResult<MergeReport> {
        self.engine.compact_runs(&self.session)
    }

    /// Migrate every cached update; the migration's report.
    pub fn migrate(&self) -> MasmResult<MigrationReport> {
        self.engine.migrate(&self.session)
    }

    /// Migrate the heap pages overlapping `[begin, end]`; the report.
    pub fn migrate_range(&self, begin: Key, end: Key) -> MasmResult<MigrationReport> {
        self.engine.migrate_range(&self.session, begin, end)
    }

    /// Pull the plug ([`Devices::crash`]) and recover from the images,
    /// `tracer` flight-recording the recovery; what recovery reported.
    /// The table then runs on the images, on the same clock. An image
    /// that does not recover is an error, and leaves the table as it
    /// was.
    pub fn crash(&mut self, tracer: Option<&Arc<Tracer>>) -> MasmResult<RecoveryReport> {
        let image = self.dev.crash();
        let (recovered, report) = self.spec.clone().recover(image, tracer)?;
        *self = recovered;
        Ok(report)
    }

    /// The engine's statistics.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }
}
