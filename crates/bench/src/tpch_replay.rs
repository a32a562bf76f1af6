//! Shared machinery for the TPC-H replay experiments (Figures 3, 4, 14).
//!
//! The paper replays disk I/O traces of 20 TPC-H queries against its
//! prototype, in three configurations: no updates, concurrent in-place
//! updates, and (Figure 14) MaSM with a per-table division of the flash
//! space. We regenerate the equivalent multi-table range-scan traces
//! (see `masm_workloads::tpch`) and drive the same three configurations.

use std::sync::Arc;

use masm_core::{MasmConfig, MasmEngine};
use masm_pagestore::TableHeap;
use masm_storage::{DeviceProfile, Ns, SimDevice};
use masm_workloads::tpch::{QueryProfile, Table, TpchTables, TpchUpdateGen};

use crate::{InPlaceUpdater, Machine};

/// A TPC-H machine: tables on one disk, one SSD, one WAL device.
pub(crate) struct TpchEnv {
    /// Simulated machine.
    pub machine: Machine,
    /// The replay tables.
    pub tables: TpchTables,
}

impl TpchEnv {
    /// Build tables totalling `total_bytes`.
    pub(crate) fn new(total_bytes: u64) -> TpchEnv {
        let machine = Machine::new();
        let session = machine.session();
        let tables = TpchTables::build(&machine.disk, &session, total_bytes).unwrap();
        TpchEnv { machine, tables }
    }

    /// Time one query with no updates. `column_factor` scales each scan
    /// range (1.0 = row store; <1 emulates a column store reading only
    /// the referenced columns' bytes).
    pub(crate) fn time_query(&self, q: &QueryProfile, column_factor: f64) -> Ns {
        self.time_query_with(q, column_factor, &mut |_| {})
    }

    /// Time one query while `interleave` is invoked between record
    /// batches (the concurrent-updater hook).
    pub(crate) fn time_query_with(
        &self,
        q: &QueryProfile,
        column_factor: f64,
        interleave: &mut dyn FnMut(Ns),
    ) -> Ns {
        let session = self.machine.session();
        let start = session.now();
        for step in q.steps {
            let (b, e) = self.tables.key_range(step);
            let e = b + ((e - b) as f64 * column_factor) as u64;
            let mut scan = self
                .tables
                .heap(step.table)
                .scan_range(session.clone(), b, e);
            let mut n = 0u64;
            while scan.next().is_some() {
                n += 1;
                if n.is_multiple_of(512) {
                    interleave(session.now());
                }
            }
            std::hint::black_box(n);
        }
        session.now() - start
    }

    /// A saturated in-place updater over the lineitem (heap 0) and
    /// orders (heap 1) heaps, which it mutates, replaying the TPC-H
    /// update groups of `seed` one operation at a time.
    pub(crate) fn inplace_updater(&self, seed: u64) -> InPlaceUpdater {
        let heap = |heap: &Arc<TableHeap>| {
            masm_baselines::InPlaceEngine::new(Arc::clone(heap), self.tables.schema.clone())
        };
        let mut gen = TpchUpdateGen::new(&self.tables, seed);
        let ops = std::iter::repeat_with(move || gen.next_group().ops)
            .flatten()
            .map(|(table, key, op)| (usize::from(matches!(table, Table::Orders)), key, op));
        InPlaceUpdater::new(
            vec![heap(&self.tables.lineitem), heap(&self.tables.orders)],
            ops,
            &self.machine.clock,
        )
    }
}

/// The Figure-14 configuration: MaSM engines for orders and lineitem
/// dividing a flash budget, other tables scanned raw. Each engine has
/// its own update-cache SSD and redo-log device on the machine's clock.
pub(crate) struct TpchMasm {
    /// Engine over the orders table.
    pub orders: Arc<MasmEngine>,
    /// Engine over the lineitem table.
    pub lineitem: Arc<MasmEngine>,
}

impl TpchMasm {
    /// Build the two engines over `env`'s tables, dividing a flash space
    /// of `flash_bytes` between them (¼ orders, ¾ lineitem — matching
    /// their data sizes).
    pub(crate) fn new(env: &TpchEnv, flash_bytes: u64) -> TpchMasm {
        let page = 4096usize;
        let li_cap = (flash_bytes * 3 / 4 / page as u64) * page as u64;
        let ord_cap = (flash_bytes / 4 / page as u64) * page as u64;
        let mk = |heap: &Arc<masm_pagestore::TableHeap>, cap: u64| {
            let device =
                || SimDevice::in_memory(DeviceProfile::ssd_x25e(), env.machine.clock.clone());
            let cfg = MasmConfig {
                ssd_page_size: page,
                ssd_capacity: cap.max(64 * page as u64),
                alpha: 1.0,
                index_granularity: masm_core::IndexGranularity::Bytes(1024),
                migration_threshold: 1.0,
                merge_duplicates: true,
                ..MasmConfig::default()
            };
            MasmEngine::new(
                Arc::clone(heap),
                device(),
                device(),
                env.tables.schema.clone(),
                cfg,
            )
            .unwrap()
        };
        TpchMasm {
            lineitem: mk(&env.tables.lineitem, li_cap),
            orders: mk(&env.tables.orders, ord_cap),
        }
    }

    /// Fill both caches to `fraction` of their capacity with correlated
    /// update groups; an engine that has reached its target is fed no
    /// more of them.
    pub(crate) fn fill(&self, env: &TpchEnv, fraction: f64, seed: u64) {
        let session = env.machine.session();
        let mut gen = TpchUpdateGen::new(&env.tables, seed);
        let target = |e: &Arc<MasmEngine>| (e.config().ssd_capacity as f64 * fraction) as u64;
        while self.lineitem.cached_bytes() < target(&self.lineitem)
            || self.orders.cached_bytes() < target(&self.orders)
        {
            let group = gen.next_group();
            for (table, key, op) in group.ops {
                let engine = match table {
                    Table::Orders => &self.orders,
                    _ => &self.lineitem,
                };
                if engine.cached_bytes() < target(engine) {
                    engine.apply_update(&session, key, op).unwrap();
                }
            }
        }
    }

    /// Time one query with MaSM merging on orders/lineitem scans.
    pub(crate) fn time_query(&self, env: &TpchEnv, q: &QueryProfile) -> Ns {
        let session = env.machine.session();
        let start = session.now();
        for step in q.steps {
            let (b, e) = env.tables.key_range(step);
            let n = match step.table {
                Table::Orders => self
                    .orders
                    .begin_scan(session.clone(), b, e)
                    .unwrap()
                    .count(),
                Table::Lineitem => self
                    .lineitem
                    .begin_scan(session.clone(), b, e)
                    .unwrap()
                    .count(),
                other => env
                    .tables
                    .heap(other)
                    .scan_range(session.clone(), b, e)
                    .count(),
            };
            std::hint::black_box(n);
        }
        session.now() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masm_storage::MIB;

    #[test]
    fn fill_stops_each_engine_at_its_target() {
        let env = TpchEnv::new(8 * MIB);
        let masm = TpchMasm::new(&env, 8 * MIB / 30);
        masm.fill(&env, 0.5, 21);
        for engine in [&masm.orders, &masm.lineitem] {
            let full = engine.cached_bytes() as f64 / engine.config().ssd_capacity as f64;
            assert!((0.5..=1.0).contains(&full), "{full:.2} full");
        }
    }
}
