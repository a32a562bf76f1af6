//! Conventional in-place updates (§2.2).
//!
//! Each update is a random read-modify-write of a 4 KB data page on the
//! main disk, exactly like an OLTP system would do it. Correctness is
//! trivial — queries always see fresh data — but the random I/Os
//! interleave with range scans on the same device and both workloads
//! lose their access-pattern locality.

use std::sync::Arc;

use masm_core::update::{UpdateOp, UpdateRecord};
use masm_core::{MasmError, MasmResult};
use masm_pagestore::{Key, Schema, TableHeap};
use masm_storage::SessionHandle;

/// An engine that applies every update directly to the main data.
pub struct InPlaceEngine {
    heap: Arc<TableHeap>,
    schema: Schema,
}

impl InPlaceEngine {
    /// Wrap a heap.
    pub fn new(heap: Arc<TableHeap>, schema: Schema) -> Self {
        InPlaceEngine { heap, schema }
    }

    /// Apply one update: random 4 KB read, modify, random 4 KB write
    /// ([`TableHeap::edit_page_of`]).
    pub fn apply_update(
        &self,
        session: &SessionHandle,
        key: Key,
        op: UpdateOp,
        timestamp: u64,
    ) -> MasmResult<()> {
        let update = UpdateRecord::new(timestamp, key, op);
        let edited = self.heap.edit_page_of(session, key, timestamp, |records| {
            let (at, base) = match records.binary_search_by_key(&key, |r| r.key) {
                Ok(i) => (i, Some(records.remove(i))),
                Err(i) => (i, None),
            };
            if let Some(new) = update.apply_to(base, &self.schema) {
                records.insert(at, new);
            }
        })?;
        edited.ok_or(MasmError::Corrupt("in-place update on empty table"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masm_core::update::FieldPatch;
    use masm_pagestore::{HeapConfig, Record};
    use masm_storage::{DeviceProfile, SimClock, SimDevice};

    fn schema() -> Schema {
        Schema::synthetic_100b()
    }

    fn payload(v: u32) -> Vec<u8> {
        let s = schema();
        let mut p = s.empty_payload();
        s.set_u32(&mut p, 0, v);
        p
    }

    fn setup(n: u64) -> (InPlaceEngine, SessionHandle) {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
        let session = SessionHandle::fresh(clock);
        // Load at 90% fill so inserts usually fit without splits.
        heap.bulk_load(
            &session,
            (0..n).map(|i| Record::new(i * 2, payload(i as u32))),
            0.9,
        )
        .unwrap();
        (InPlaceEngine::new(heap, schema()), session)
    }

    fn scan_keys(e: &InPlaceEngine, s: &SessionHandle, a: Key, b: Key) -> Vec<Key> {
        e.heap.scan_range(s.clone(), a, b).map(|r| r.key).collect()
    }

    #[test]
    fn insert_delete_modify_roundtrip() {
        let (e, s) = setup(500);
        e.apply_update(&s, 11, UpdateOp::Insert(payload(110)), 1)
            .unwrap();
        e.apply_update(&s, 20, UpdateOp::Delete, 2).unwrap();
        e.apply_update(
            &s,
            30,
            UpdateOp::Modify(vec![FieldPatch {
                field: 0,
                value: 303u32.to_le_bytes().to_vec(),
            }]),
            3,
        )
        .unwrap();
        let keys = scan_keys(&e, &s, 0, 50);
        assert!(keys.contains(&11));
        assert!(!keys.contains(&20));
        let rec = e.heap.scan_range(s, 30, 30).next().unwrap();
        assert_eq!(schema().get_u32(&rec.payload, 0), 303);
    }

    #[test]
    fn updates_cost_random_disk_ios() {
        let (e, s) = setup(10_000);
        let disk = e.heap.device().clone();
        disk.reset_stats();
        // Spread updates across the table: every one is a seek.
        for i in 0..20u64 {
            e.apply_update(&s, (i * 997) % 20_000, UpdateOp::Replace(payload(1)), i + 1)
                .unwrap();
        }
        let stats = disk.stats();
        assert!(stats.random_ops >= 20, "{stats:?}");
        // Read-modify-write: one page read and one page write per update.
        assert!(stats.read_ops >= 20 && stats.write_ops >= 20, "{stats:?}");
    }

    /// The page is read once: no second read to count its old records.
    #[test]
    fn an_update_reads_its_page_once() {
        let (e, s) = setup(10_000);
        let disk = e.heap.device().clone();
        disk.reset_stats();
        e.apply_update(&s, 9_998, UpdateOp::Replace(payload(1)), 1)
            .unwrap();
        let stats = disk.stats();
        assert_eq!((stats.read_ops, stats.write_ops), (1, 1), "{stats:?}");
    }

    #[test]
    fn sustained_rate_is_paper_magnitude() {
        // ~48 in-place updates/s in Figure 12; we accept 20..150.
        let (e, s) = setup(50_000);
        let start = s.now();
        let n = 200u64;
        for i in 0..n {
            e.apply_update(
                &s,
                (i * 12_347) % 100_000,
                UpdateOp::Replace(payload(2)),
                i + 1,
            )
            .unwrap();
        }
        let elapsed_s = (s.now() - start) as f64 / 1e9;
        let rate = n as f64 / elapsed_s;
        assert!((20.0..150.0).contains(&rate), "rate {rate}/s");
    }

    #[test]
    fn update_of_missing_key_on_empty_table_errors() {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
        let e = InPlaceEngine::new(heap, schema());
        let s = SessionHandle::fresh(clock);
        assert!(e.apply_update(&s, 5, UpdateOp::Delete, 1).is_err());
    }
}
