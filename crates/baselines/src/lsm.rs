//! LSM applied to IU (§2.3, Figure 5(c)).
//!
//! A log-structured merge-tree over the SSD update cache: `C0` in
//! memory, `C1..Ch` on flash with capacities in geometric progression
//! `size(C_{i+1})/size(C_i) = r`. Rolling propagation is modeled as a
//! full merge of level `i` into level `i+1` whenever level `i`
//! overflows — each such merge rewrites the old contents of `i+1`, which
//! is precisely where the write amplification comes from: about `r + 1`
//! writes per update for levels `1..h−1` and `(r+1)/2` for level `h`.
//!
//! Scans are efficient (each level is a sorted run with a run index —
//! no random reads), so LSM fixes IU's query problem; the paper rejects
//! it because the extra writes cut the SSD's lifetime by an order of
//! magnitude (§2.3: 17× at the write-optimal height for the 4 GB-flash /
//! 16 MB-memory setting).

use std::sync::Arc;

use parking_lot::Mutex;

use masm_core::config::MasmConfig;
use masm_core::merge::{
    fold_duplicates, KWayUpdates, MergeDataUpdates, MergeUpdates, UpdateStream,
};
use masm_core::run::{write_run, RunScan, ScanFailures, SortedRun};
use masm_core::update::{UpdateOp, UpdateRecord};
use masm_core::{MasmError, MasmResult};
use masm_pagestore::{Key, Record, Schema, TableHeap};
use masm_storage::{SessionHandle, SimDevice};

struct LsmState {
    /// C0: the in-memory level, kept sorted on flush.
    c0: Vec<UpdateRecord>,
    c0_bytes: usize,
    /// C1..Ch: one sorted run per flash level (None = empty level).
    levels: Vec<Option<Arc<SortedRun>>>,
    /// Bump allocator for run space.
    next_offset: u64,
    ingested: u64,
    ingested_bytes: u64,
    next_run_id: u64,
}

/// Configuration of the LSM-IU baseline.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Bytes of memory for C0.
    pub mem_bytes: usize,
    /// Number of flash-resident levels `h`.
    pub levels: u32,
    /// Size ratio `r` between adjacent levels.
    pub ratio: u64,
    /// Run encoding parameters (SSD page size, index granularity).
    pub run_cfg: MasmConfig,
}

impl LsmConfig {
    /// An LSM sized like the paper's example: memory `mem_bytes`, `h`
    /// levels, ratio derived from flash/memory.
    pub fn with_levels(mem_bytes: usize, flash_bytes: u64, h: u32) -> Self {
        let ratio = ((flash_bytes as f64 / mem_bytes as f64).powf(1.0 / h as f64)).round() as u64;
        LsmConfig {
            mem_bytes,
            levels: h,
            ratio: ratio.max(2),
            run_cfg: MasmConfig::small_for_tests(),
        }
    }
}

/// The LSM-IU baseline engine.
pub struct LsmEngine {
    heap: Arc<TableHeap>,
    ssd: SimDevice,
    schema: Schema,
    cfg: LsmConfig,
    state: Mutex<LsmState>,
}

impl LsmEngine {
    /// Create an LSM engine caching updates on `ssd`.
    pub fn new(heap: Arc<TableHeap>, ssd: SimDevice, schema: Schema, cfg: LsmConfig) -> Self {
        let levels = cfg.levels as usize;
        LsmEngine {
            heap,
            ssd,
            schema,
            cfg,
            state: Mutex::new(LsmState {
                c0: Vec::new(),
                c0_bytes: 0,
                levels: vec![None; levels],
                next_offset: 0,
                ingested: 0,
                ingested_bytes: 0,
                next_run_id: 0,
            }),
        }
    }

    /// Updates ingested and their logical bytes.
    fn ingest_stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.ingested, st.ingested_bytes)
    }

    /// Measured write amplification: SSD bytes written per logical
    /// update byte ingested (compare with
    /// [`masm_core::theory::lsm_writes_per_update`]).
    pub fn write_amplification(&self) -> f64 {
        let (_, logical) = self.ingest_stats();
        self.ssd.stats().write_amplification(logical)
    }

    /// Capacity of flash level `i` (0-based) in bytes.
    fn level_capacity(&self, i: usize) -> u64 {
        self.cfg.mem_bytes as u64 * self.cfg.ratio.pow(i as u32 + 1)
    }

    /// Ingest one update; cascades level merges as levels overflow.
    pub fn apply_update(
        &self,
        session: &SessionHandle,
        key: Key,
        op: UpdateOp,
        timestamp: u64,
    ) -> MasmResult<()> {
        let u = UpdateRecord::new(timestamp, key, op);
        let mut st = self.state.lock();
        st.ingested += 1;
        st.ingested_bytes += u.encoded_len() as u64;
        st.c0_bytes += u.encoded_len();
        st.c0.push(u);
        if st.c0_bytes >= self.cfg.mem_bytes {
            self.flush_c0(session, &mut st)?;
        }
        Ok(())
    }

    /// Rolling propagation, modeled as full merges: C0 merges into
    /// level 0, and the result on down while it overflows its level;
    /// the deepest level reached is rewritten. Everything is read
    /// before anything changes, so a failed read or write leaves C0
    /// and every level as they were.
    fn flush_c0(&self, session: &SessionHandle, st: &mut LsmState) -> MasmResult<()> {
        st.c0.sort_by_key(|a| (a.key, a.ts));
        let mut merged = st.c0.clone();
        let mut level = 0;
        let bytes = loop {
            merged = self.merge_into_level(session, st.levels[level].as_ref(), merged)?;
            let bytes: u64 = merged.iter().map(|u| u.encoded_len() as u64).sum();
            if bytes <= self.level_capacity(level) || level + 1 == st.levels.len() {
                break bytes;
            }
            level += 1;
        };
        let run = if merged.is_empty() {
            None
        } else {
            let (id, base) = (st.next_run_id, st.next_offset);
            let run = write_run(session, &self.ssd, &self.cfg.run_cfg, id, base, 1, &merged)?;
            st.next_run_id += 1;
            st.next_offset += bytes;
            Some(Arc::new(run))
        };
        st.c0.clear();
        st.c0_bytes = 0;
        st.levels[..level].fill(None);
        st.levels[level] = run;
        Ok(())
    }

    /// `incoming` (sorted) merged with the updates of a level's `run`,
    /// duplicates folded as LSM trees do during propagation. A read of
    /// the run that fails is the error.
    fn merge_into_level(
        &self,
        session: &SessionHandle,
        run: Option<&Arc<SortedRun>>,
        incoming: Vec<UpdateRecord>,
    ) -> MasmResult<Vec<UpdateRecord>> {
        let failures = ScanFailures::default();
        let mut streams: Vec<UpdateStream> = vec![Box::new(incoming.into_iter())];
        if let Some(run) = run {
            let scan = RunScan::with_cache(
                self.ssd.clone(),
                session.clone(),
                Arc::clone(run),
                None,
                0,
                Key::MAX,
            );
            streams.push(Box::new(scan.reporting_to(failures.clone())));
        }
        let merged: Vec<UpdateRecord> = KWayUpdates::new(streams).collect();
        failures.check()?;
        Ok(fold_duplicates(merged, &self.schema, |_, _| true))
    }

    /// Open a merged range scan: one index-guided run scan per level —
    /// no per-entry random reads (LSM's strength). A read that fails
    /// ends the stream: its last item is the error, and nothing joined
    /// against a truncated update side comes before it.
    pub fn begin_scan(
        &self,
        session: SessionHandle,
        begin: Key,
        end: Key,
        as_of: u64,
    ) -> MasmResult<impl Iterator<Item = MasmResult<Record>>> {
        let st = self.state.lock();
        let mut streams: Vec<UpdateStream> = Vec::new();
        let mut c0: Vec<UpdateRecord> = st
            .c0
            .iter()
            .filter(|u| u.key >= begin && u.key <= end)
            .cloned()
            .collect();
        c0.sort_by_key(|a| (a.key, a.ts));
        streams.push(Box::new(c0.into_iter()));
        let failures = ScanFailures::default();
        for level in st.levels.iter().flatten() {
            let scan = RunScan::with_cache(
                self.ssd.clone(),
                session.clone(),
                Arc::clone(level),
                None,
                begin,
                end,
            );
            streams.push(Box::new(scan.reporting_to(failures.clone())));
        }
        drop(st);
        let merged = MergeUpdates::new(streams, self.schema.clone(), as_of);
        let data = self.heap.scan_range(session, begin, end);
        let mut join = MergeDataUpdates::new(data, merged, self.schema.clone());
        let mut failed = false;
        Ok(std::iter::from_fn(move || {
            if let Some(record) = join.pop() {
                return Some(Ok(record));
            }
            if failed {
                return None;
            }
            join.refill();
            // A run scan that failed during this join step ended its
            // stream: the step's record is not handed out. A step joins
            // one record, so the flag is read here, not the lock.
            let failure = if failures.failed() {
                join.abort();
                failures.check().err()
            } else {
                join.take_error().map(MasmError::Storage)
            };
            if let Some(failure) = failure {
                failed = true;
                return Some(Err(failure));
            }
            join.pop().map(Ok)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use masm_pagestore::HeapConfig;
    use masm_storage::{DeviceProfile, SimClock};

    fn schema() -> Schema {
        Schema::synthetic_100b()
    }

    fn payload(v: u32) -> Vec<u8> {
        let s = schema();
        let mut p = s.empty_payload();
        s.set_u32(&mut p, 0, v);
        p
    }

    fn scan_all(e: &LsmEngine, s: &SessionHandle, begin: Key, end: Key) -> MasmResult<Vec<Record>> {
        e.begin_scan(s.clone(), begin, end, u64::MAX)?.collect()
    }

    fn setup(n: u64, mem: usize, h: u32) -> (LsmEngine, SessionHandle) {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
        let session = SessionHandle::fresh(clock);
        heap.bulk_load(
            &session,
            (0..n).map(|i| Record::new(i * 2, payload(i as u32))),
            1.0,
        )
        .unwrap();
        let cfg = LsmConfig::with_levels(mem, mem as u64 * 256, h);
        (LsmEngine::new(heap, ssd, schema(), cfg), session)
    }

    #[test]
    fn updates_visible_through_scan() {
        let (e, s) = setup(500, 4096, 2);
        e.apply_update(&s, 11, UpdateOp::Insert(payload(110)), 1)
            .unwrap();
        e.apply_update(&s, 20, UpdateOp::Delete, 2).unwrap();
        // Force flushes with more traffic.
        for i in 0..2000u64 {
            e.apply_update(&s, 2000 + i, UpdateOp::Replace(payload(1)), 10 + i)
                .unwrap();
        }
        let keys: Vec<Key> = e
            .begin_scan(s, 0, 50, u64::MAX)
            .unwrap()
            .map(|r| r.unwrap().key)
            .collect();
        assert!(keys.contains(&11), "insert visible after cascades");
        assert!(!keys.contains(&20), "delete visible after cascades");
    }

    #[test]
    fn write_amplification_grows_with_fill() {
        let (e, s) = setup(100, 2048, 2);
        for i in 0..20_000u64 {
            e.apply_update(&s, i % 5000, UpdateOp::Delete, i + 1)
                .unwrap();
        }
        let amp = e.write_amplification();
        // Every entry is written far more than once (the paper's point).
        assert!(amp > 2.0, "write amplification {amp}");
    }

    #[test]
    fn deeper_trees_write_less_per_update_when_ratio_shrinks() {
        // h=1 (huge ratio) must amplify more than h=4 (small ratio), as
        // in the paper's 128 vs 17 example.
        let run = |h: u32| {
            let (e, s) = setup(100, 1024, h);
            for i in 0..30_000u64 {
                e.apply_update(&s, (i * 17) % 65_536, UpdateOp::Delete, i + 1)
                    .unwrap();
            }
            e.write_amplification()
        };
        let shallow = run(1);
        let deep = run(4);
        assert!(
            shallow > deep,
            "h=1 amp {shallow} must exceed h=4 amp {deep}"
        );
    }

    #[test]
    fn scans_use_sequential_reads_not_per_entry_randoms() {
        let (e, s) = setup(2000, 2048, 2);
        for i in 0..5000u64 {
            e.apply_update(&s, (i * 3) % 4000, UpdateOp::Replace(payload(1)), i + 1)
                .unwrap();
        }
        let ssd = e.ssd.clone();
        ssd.reset_stats();
        let n = scan_all(&e, &s, 0, 4000).unwrap().len();
        assert!(n > 0);
        let stats = ssd.stats();
        // Block-granular span reads per level (one op per run block),
        // not thousands of per-entry *random* reads: IU would issue one
        // random 4 KB read per cached entry (~5000 here).
        assert!(stats.read_ops < 1000, "{stats:?}");
        assert!(
            stats.sequential_ops > stats.random_ops * 5,
            "span reads must be sequential: {stats:?}"
        );
    }

    /// An update stream over the bulk-loaded table's keys (even keys
    /// below 1000; key `k`'s payload starts as `k / 2`), keeping the
    /// latest value of each key as the model.
    #[derive(Default)]
    struct Replacer {
        ts: u64,
        model: BTreeMap<Key, u32>,
    }

    impl Replacer {
        /// Replace keys until `done`; the first error is returned.
        fn until(
            &mut self,
            e: &LsmEngine,
            s: &SessionHandle,
            done: impl Fn(&LsmState) -> bool,
        ) -> MasmResult<()> {
            while !done(&e.state.lock()) {
                self.ts += 1;
                let (key, v) = ((self.ts * 14) % 1000, self.ts as u32);
                self.model.insert(key, v);
                e.apply_update(s, key, UpdateOp::Replace(payload(v)), self.ts)?;
            }
            Ok(())
        }

        /// A full scan is the bulk load with the model's values.
        fn check(&self, e: &LsmEngine, s: &SessionHandle) {
            let rows = scan_all(e, s, 0, Key::MAX).unwrap();
            assert_eq!(rows.len(), 500);
            for r in rows {
                let want = self.model.get(&r.key).copied();
                let want = want.unwrap_or(r.key as u32 / 2);
                assert_eq!(schema().get_u32(&r.payload, 0), want, "key {}", r.key);
            }
        }
    }

    #[test]
    fn a_read_fault_in_a_level_merge_is_an_error_and_loses_nothing() {
        let (e, s) = setup(500, 4096, 2);
        let mut w = Replacer::default();
        // Up to the first flush: level 0 is written, nothing is read.
        w.until(&e, &s, |st| st.levels[0].is_some()).unwrap();
        e.ssd.inject_read_fault();
        // The next flush must read level 0 to merge into it.
        let err = w.until(&e, &s, |_| false).unwrap_err();
        assert!(
            matches!(err, MasmError::Storage(_) | MasmError::BlockRun(_)),
            "{err}"
        );
        // The failed flush changed nothing; a retried one merges it all.
        assert_eq!(e.state.lock().next_run_id, 1);
        e.ssd.clear_read_fault();
        w.until(&e, &s, |st| st.next_run_id == 2).unwrap();
        assert!(e.state.lock().c0.is_empty());
        w.check(&e, &s);
    }

    #[test]
    fn a_read_fault_ends_a_scan_with_the_error_after_a_correct_prefix() {
        let (e, s) = setup(500, 4096, 2);
        let mut w = Replacer::default();
        w.until(&e, &s, |st| st.next_run_id == 3).unwrap();
        w.check(&e, &s);
        let want = scan_all(&e, &s, 0, Key::MAX).unwrap();
        // Opened first: each level's first block is already read.
        let scan = e.begin_scan(s.clone(), 0, Key::MAX, u64::MAX).unwrap();
        e.ssd.inject_read_fault();
        let got: Vec<MasmResult<Record>> = scan.collect();
        let (last, prefix) = got.split_last().unwrap();
        assert!(
            matches!(last, Err(MasmError::Storage(_) | MasmError::BlockRun(_))),
            "the stream ends with the error: {last:?}"
        );
        let prefix: Vec<&Record> = prefix.iter().map(|r| r.as_ref().unwrap()).collect();
        assert!((1..want.len()).contains(&prefix.len()), "{}", prefix.len());
        assert!(prefix.iter().zip(&want).all(|(got, want)| *got == want));
    }
}
