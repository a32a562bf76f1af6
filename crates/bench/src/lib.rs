//! # masm-bench — the experiment harness
//!
//! One function per table/figure of the paper ([`figs`]; the README's
//! "Paper figure index" lists them), all run by the `repro` binary, plus
//! `fig_concurrent_scans`, which drives real threads. This library holds
//! what they share: scaled experiment environments, the
//! concurrent-updater driver that reproduces the paper's "online updates
//! while queries run" setup, and the one output format, [`Report`].
//!
//! ## Scaling
//!
//! The paper's 100 GB table / 4 GB SSD cache scale down by a common
//! factor (default table ≈ 64 MiB; override with `MASM_BENCH_MB`). All
//! figures report *normalized* times (relative to the same-size scan
//! without updates), which cancels the scale factor; absolute rates
//! (Figure 12) scale linearly and we report the scaled numbers plus the
//! extrapolation.

pub mod figs;
mod report;
pub(crate) mod tpch_replay;

use std::sync::Arc;

use masm_core::{MasmConfig, MasmEngine};
use masm_pagestore::{HeapConfig, Key, TableHeap};
use masm_storage::{DeviceProfile, Ns, SessionHandle, SimClock, SimDevice, MIB};
use masm_workloads::synthetic::{SyntheticTable, UpdateMix, UpdateStreamGen};

pub use masm_core::update::UpdateOp;
pub use report::Report;

/// Table size in MiB: `MASM_BENCH_MB`, 64 when it is unset. Anything but
/// a positive whole number is an error.
pub fn scale_mb() -> Result<u64, String> {
    match std::env::var("MASM_BENCH_MB") {
        Err(std::env::VarError::NotPresent) => Ok(64),
        value => value
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&mb| mb > 0)
            .ok_or_else(|| "MASM_BENCH_MB must be a positive whole number of MiB".to_string()),
    }
}

/// The paper's cache:data ratio — 4 GB of flash for 100 GB of data.
pub(crate) const CACHE_FRACTION: f64 = 0.04;

/// A fresh simulated machine: one HDD (main data), one SSD (update
/// cache), one small SSD (WAL), all on a shared virtual clock.
pub struct Machine {
    /// Shared virtual clock.
    pub clock: SimClock,
    /// Main-data disk.
    pub disk: SimDevice,
    /// Update-cache SSD.
    pub ssd: SimDevice,
    /// WAL device.
    pub wal: SimDevice,
}

impl Machine {
    /// Build the machine.
    pub(crate) fn new() -> Machine {
        let clock = SimClock::new();
        Machine {
            disk: SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone()),
            ssd: SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()),
            wal: SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()),
            clock,
        }
    }

    /// A fresh session on this machine's clock.
    pub fn session(&self) -> SessionHandle {
        SessionHandle::fresh(self.clock.clone())
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

/// A scaled MaSM configuration: cache = `CACHE_FRACTION` × table bytes,
/// 4 KiB SSD pages (so M stays meaningful at laptop scale), fine-grain
/// index.
pub(crate) fn scaled_masm_config(table_bytes: u64) -> MasmConfig {
    let mut cfg = MasmConfig {
        ssd_page_size: 4096,
        ssd_capacity: ((table_bytes as f64 * CACHE_FRACTION) as u64).max(64 * 4096),
        alpha: 1.0,
        index_granularity: masm_core::IndexGranularity::Bytes(1024),
        migration_threshold: 0.9,
        merge_duplicates: true,
        ..MasmConfig::default()
    };
    // Round capacity to whole pages.
    cfg.ssd_capacity -= cfg.ssd_capacity % cfg.ssd_page_size as u64;
    cfg
}

/// The synthetic experiment environment of §4.1/§4.2.
pub struct SyntheticEnv {
    /// The simulated machine.
    pub machine: Machine,
    /// The MaSM engine over the synthetic table.
    pub engine: Arc<MasmEngine>,
    /// The generator description of the table.
    pub table: SyntheticTable,
    /// Total table bytes.
    pub table_bytes: u64,
}

impl SyntheticEnv {
    /// Build the environment with a loaded table of `mb` MiB.
    pub fn new(mb: u64) -> SyntheticEnv {
        Self::with_config_mutator(mb, |_| {})
    }

    /// Build with a hook to adjust the MaSM configuration.
    pub fn with_config_mutator(mb: u64, f: impl FnOnce(&mut MasmConfig)) -> SyntheticEnv {
        let machine = Machine::new();
        let table_bytes = mb * MIB;
        let table = SyntheticTable::with_bytes(table_bytes);
        let mut cfg = scaled_masm_config(table_bytes);
        f(&mut cfg);
        let heap = Arc::new(TableHeap::new(machine.disk.clone(), HeapConfig::default()));
        let engine = MasmEngine::new(
            heap,
            machine.ssd.clone(),
            machine.wal.clone(),
            table.schema.clone(),
            cfg,
        )
        .expect("valid scaled config");
        let session = machine.session();
        engine
            .load_table(&session, table.records(), 1.0)
            .expect("bulk load");
        SyntheticEnv {
            machine,
            engine,
            table,
            table_bytes,
        }
    }

    /// Fill the SSD update cache to `fraction` of its capacity with
    /// uniformly distributed updates (the "cached updates occupy 50% of
    /// the allocated flash space" setup).
    pub fn fill_cache(&self, fraction: f64, seed: u64) {
        let target = (self.engine.config().ssd_capacity as f64 * fraction) as u64;
        let session = self.machine.session();
        let mut gen = UpdateStreamGen::uniform(self.table.clone(), UpdateMix::default(), seed);
        while self.engine.cached_bytes() < target {
            let (key, op) = gen.next_update();
            match self.engine.apply_update(&session, key, op) {
                Ok(_) => {}
                // Very high fill targets (99%) stop at the last whole
                // run that fits.
                Err(masm_core::MasmError::CacheFull { .. }) => break,
                Err(e) => panic!("cache fill failed: {e}"),
            }
        }
    }

    /// Time a pure heap scan (no update merging) of `[begin, end]`.
    pub fn time_pure_scan(&self, begin: Key, end: Key) -> Ns {
        let session = self.machine.session();
        let start = session.now();
        let n = self
            .engine
            .heap()
            .scan_range(session.clone(), begin, end)
            .count();
        std::hint::black_box(n);
        session.now() - start
    }

    /// Time a MaSM merged scan of `[begin, end]`.
    pub fn time_masm_scan(&self, begin: Key, end: Key) -> Ns {
        let session = self.machine.session();
        let start = session.now();
        let scan = self.engine.begin_scan(session.clone(), begin, end);
        let n = scan.expect("scan").count();
        std::hint::black_box(n);
        session.now() - start
    }

    /// Mean [`time_pure_scan`](Self::time_pure_scan) over `ranges`.
    pub(crate) fn mean_pure_scan(&self, ranges: &[(Key, Key)]) -> Ns {
        mean_ns(ranges, |_, b, e| self.time_pure_scan(b, e))
    }

    /// Mean [`time_masm_scan`](Self::time_masm_scan) over `ranges`.
    pub(crate) fn mean_masm_scan(&self, ranges: &[(Key, Key)]) -> Ns {
        mean_ns(ranges, |_, b, e| self.time_masm_scan(b, e))
    }

    /// Evenly spaced scan ranges of `bytes` each (returned as key
    /// ranges), following the paper's "randomly select 10 ranges for
    /// scans of 100MB or larger, and 100 ranges for smaller ranges"
    /// methodology (we use evenly spaced deterministic ranges).
    pub(crate) fn ranges(&self, bytes: u64, count: usize) -> Vec<(Key, Key)> {
        let records_per_range = (bytes / 100).max(1);
        let key_span = records_per_range * 2;
        let max_key = self.table.max_key();
        (0..count as u64)
            .map(|i| {
                let begin = (max_key.saturating_sub(key_span)) * i / count as u64;
                (begin, (begin + key_span).min(max_key))
            })
            .collect()
    }
}

/// A saturated in-place updater, the §2.2 interference generator. Like
/// a single updater thread it keeps one read-modify-write chain in
/// flight at a time, on a session of its own: whenever it falls behind
/// the scanning actor in virtual time, it issues the next update of its
/// stream on the same disk.
pub(crate) struct InPlaceUpdater {
    heaps: Vec<masm_baselines::InPlaceEngine>,
    ops: Box<dyn Iterator<Item = (usize, Key, UpdateOp)>>,
    session: SessionHandle,
    next_ts: u64,
    /// Update operations issued.
    pub issued: u64,
}

impl InPlaceUpdater {
    /// An updater applying `ops` — each the index of the heap it edits,
    /// a key and an operation — to `heaps` (which it mutates!), its
    /// session starting at `clock`'s current time.
    pub(crate) fn new(
        heaps: Vec<masm_baselines::InPlaceEngine>,
        ops: impl Iterator<Item = (usize, Key, UpdateOp)> + 'static,
        clock: &SimClock,
    ) -> Self {
        InPlaceUpdater {
            heaps,
            ops: Box::new(ops),
            session: SessionHandle::fresh(clock.clone()),
            next_ts: 1,
            issued: 0,
        }
    }

    /// Catch the updater up to virtual time `now`: it issues updates
    /// back-to-back until its own session time passes `now`.
    pub(crate) fn catch_up(&mut self, now: Ns) {
        while self.session.now() < now {
            let Some(op) = self.ops.next() else { break };
            self.apply(op);
        }
    }

    /// Apply one update at the updater's cursor. One that fails (e.g.
    /// page overflow on a full page) is skipped — its I/O was charged.
    fn apply(&mut self, (heap, key, op): (usize, Key, UpdateOp)) {
        let _ = self.heaps[heap].apply_update(&self.session, key, op, self.next_ts);
        self.next_ts += 1;
        self.issued += 1;
    }

    /// Apply exactly the next `n` updates back-to-back (for the "query
    /// only + update only" bar of Figure 3): returns elapsed.
    ///
    /// Offline application batches and elevator-sorts the updates by
    /// heap and key (the I/O scheduler would do this for a deep queue
    /// of independent writes), which is exactly why "query alone +
    /// updates alone" is cheaper than running them concurrently: online
    /// updates must apply one at a time, interleaved with the scan.
    pub(crate) fn apply_exactly(&mut self, n: u64) -> Ns {
        let start = self.session.now();
        let mut ops: Vec<_> = self.ops.by_ref().take(n as usize).collect();
        ops.sort_by_key(|&(heap, key, _)| (heap, key));
        for op in ops {
            self.apply(op);
        }
        self.session.now() - start
    }
}

/// Time a scan while a saturated in-place updater hammers the same disk.
pub fn time_scan_with_inplace_updates(env: &SyntheticEnv, begin: Key, end: Key, seed: u64) -> Ns {
    let session = env.machine.session();
    // Modifications only: keeps the table size stable so the
    // normalized comparison is apples-to-apples.
    let modify = UpdateMix {
        insert: 0.0,
        delete: 0.0,
        modify: 1.0,
    };
    let mut gen = UpdateStreamGen::uniform(env.table.clone(), modify, seed);
    let heap =
        masm_baselines::InPlaceEngine::new(Arc::clone(env.engine.heap()), env.table.schema.clone());
    let ops = std::iter::repeat_with(move || {
        let (key, op) = gen.next_update();
        (0, key, op)
    });
    let mut updater = InPlaceUpdater::new(vec![heap], ops, &env.machine.clock);
    let start = session.now();
    // Lead with one update so even single-I/O scans queue behind update
    // traffic, as they would under a saturated concurrent updater.
    updater.catch_up(start + 1);
    let mut scan = env.engine.heap().scan_range(session.clone(), begin, end);
    let mut n = 0u64;
    while scan.next().is_some() {
        n += 1;
        if n.is_multiple_of(512) {
            updater.catch_up(session.now());
        }
    }
    std::hint::black_box(n);
    session.now() - start
}

/// Figure 9's range sizes for a table of `table_bytes`: one disk page,
/// 100 KB, 1 MB and 10 MB where they are smaller than the table, then
/// half the table and the whole table, ascending and without repeats.
pub(crate) fn range_ladder(table_bytes: u64) -> Vec<u64> {
    let mut sizes: Vec<u64> = [4 * 1024, 100 * 1024, MIB, 10 * MIB]
        .into_iter()
        .filter(|&size| size < table_bytes)
        .chain([table_bytes / 2, table_bytes])
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Mean virtual time of `scan(i, begin, end)` over `ranges` — the
/// paper's "average over N ranges" of one range size.
pub(crate) fn mean_ns(ranges: &[(Key, Key)], mut scan: impl FnMut(usize, Key, Key) -> Ns) -> Ns {
    let total: Ns = ranges
        .iter()
        .enumerate()
        .map(|(i, &(b, e))| scan(i, b, e))
        .sum();
    total / ranges.len().max(1) as u64
}

/// Format virtual nanoseconds as seconds.
pub(crate) fn secs(ns: Ns) -> f64 {
    ns as f64 / 1e9
}

/// Format a ratio like "1.07x".
pub(crate) fn ratio(num: Ns, den: Ns) -> String {
    format!("{:.2}x", num as f64 / den.max(1) as f64)
}

/// Human-readable byte size for range labels.
pub(crate) fn size_label(bytes: u64) -> String {
    if bytes >= MIB {
        format!("{}MB", bytes / MIB)
    } else if bytes >= 1024 {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_devices_share_clock() {
        let m = Machine::new();
        m.disk.write_at(0, 0, &[0u8; 4096]).unwrap();
        assert!(m.clock.now() > 0);
    }

    #[test]
    fn scaled_config_is_valid() {
        let cfg = scaled_masm_config(64 * MIB);
        cfg.validate().unwrap();
        assert!(cfg.ssd_capacity >= 64 * 4096);
        assert_eq!(cfg.ssd_capacity % 4096, 0);
    }

    #[test]
    fn env_builds_and_scans() {
        let env = SyntheticEnv::new(2);
        let t = env.time_pure_scan(0, u64::MAX);
        assert!(t > 0);
        let t2 = env.time_masm_scan(0, u64::MAX);
        assert!(t2 > 0);
    }

    #[test]
    fn fill_cache_reaches_target() {
        let env = SyntheticEnv::new(2);
        env.fill_cache(0.3, 1);
        let cap = env.engine.config().ssd_capacity;
        assert!(env.engine.cached_bytes() as f64 >= 0.3 * cap as f64);
    }

    #[test]
    fn inplace_interference_slows_scans() {
        let env = SyntheticEnv::new(4);
        let max = env.table.max_key();
        let pure = env.time_pure_scan(0, max);
        let with_updates = time_scan_with_inplace_updates(&env, 0, max, 7);
        assert!(
            with_updates as f64 > pure as f64 * 1.3,
            "pure {pure} with {with_updates}"
        );
    }

    #[test]
    fn ranges_are_in_bounds() {
        let env = SyntheticEnv::new(2);
        for (b, e) in env.ranges(4096, 10) {
            assert!(b <= e);
            assert!(e <= env.table.max_key());
        }
    }
}
