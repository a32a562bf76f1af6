//! Run-set management: the MaSM-2M / MaSM-M / MaSM-αM policies (§3.2–3.4).
//!
//! All three algorithms share the same machinery and differ only in the
//! memory split encoded by [`crate::config::MasmConfig`]:
//!
//! * **MaSM-2M** (α = 2): the update buffer has `M` pages, so at most `M`
//!   1-pass runs exist and the `M` query pages can always hold one read
//!   page per run — no 2-pass merges are ever needed, and every update is
//!   written to the SSD exactly once.
//! * **MaSM-M** (α = 1): the buffer gets `S = M/2` pages and queries the
//!   other half, so when more than `M − S` runs accumulate, the `N`
//!   earliest 1-pass runs are merged into one 2-pass run
//!   (`N_opt = 0.375M + 1`, Theorem 3.2), costing ≈0.75 extra writes per
//!   update (total ≈1.75).
//! * **MaSM-αM** interpolates (`S_opt = 0.5αM`, Theorem 3.3), writing
//!   each update ≈`2 − 0.25α²` times.

use std::sync::Arc;

use crate::config::MasmConfig;
use crate::run::SortedRun;

/// The set of live materialized sorted runs, ordered by minimum
/// timestamp (creation order; 2-pass runs inherit their inputs' era),
/// and the bump allocator of their SSD space.
///
/// The set is published as one shared slice, rebuilt when it changes
/// (once per flush, merge or migration): a query pins all of it with
/// one refcount bump ([`RunSet::shared`]) however many runs there are.
///
/// Runs are only deleted wholesale (after a migration, or when 1-pass
/// runs are folded into a 2-pass run), so a bump pointer plus a
/// live-byte count suffices. Removing a run lowers only the count: a
/// pinned query snapshot may still be reading the run's extent, so the
/// pointer moves back — the paper's circular reuse of the flash space —
/// only in [`RunSet::rewind_space`], which the engine calls once it has
/// quiesced (and recovery, before any query exists).
#[derive(Debug, Default)]
pub(crate) struct RunSet {
    runs: Arc<[Arc<SortedRun>]>,
    /// Where the next run's extent starts: the high-water mark.
    next_base: u64,
    /// Bytes of the live runs (and of extents allocated to runs not
    /// registered yet).
    live_bytes: u64,
    next_id: u64,
}

impl RunSet {
    /// Empty run set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Live runs, earliest first.
    pub(crate) fn runs(&self) -> &[Arc<SortedRun>] {
        &self.runs
    }

    /// The live runs as a query snapshot holds them: immutable, and
    /// unaffected by what is added or removed afterwards.
    pub(crate) fn shared(&self) -> Arc<[Arc<SortedRun>]> {
        Arc::clone(&self.runs)
    }

    /// Number of live runs.
    pub(crate) fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no runs are live.
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Bytes of cached updates currently on the SSD.
    pub(crate) fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Draw the next run id.
    pub(crate) fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Resume the id sequence after recovery.
    pub(crate) fn resume_ids_after(&mut self, last: u64) {
        self.next_id = self.next_id.max(last + 1);
    }

    /// Recompute the allocator from the live runs (recovery, and the
    /// quiesce rewind): the device from offset 0 up to the highest live
    /// extent stays allocated, everything else becomes reusable.
    /// Returns the new high-water mark.
    pub(crate) fn rewind_space(&mut self) -> u64 {
        let high = self.runs.iter().map(|r| r.base + r.bytes).max();
        self.next_base = high.unwrap_or(0);
        self.live_bytes = self.runs.iter().map(|r| r.bytes).sum();
        self.next_base
    }

    /// Allocate sequential SSD space for a run of `bytes`; returns its
    /// base.
    pub(crate) fn alloc_space(&mut self, bytes: u64) -> u64 {
        let base = self.next_base;
        self.next_base += bytes;
        self.live_bytes += bytes;
        base
    }

    /// Release `bytes` of allocated-but-unregistered space (a run build
    /// or write failed after its extent was allocated). The extent
    /// itself stays burned until the allocator rewinds at quiesce — the
    /// bump allocator never reuses space while readers may be pinned.
    pub(crate) fn free_space(&mut self, bytes: u64) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Register a freshly materialized run.
    pub(crate) fn add(&mut self, run: Arc<SortedRun>) {
        let order = |r: &SortedRun| (r.min_ts, r.id);
        let at = self.runs.partition_point(|r| order(r) < order(&run));
        let (before, after) = self.runs.split_at(at);
        self.runs = before.iter().chain([&run]).chain(after).cloned().collect();
    }

    /// Remove runs by id, releasing their bytes from the live count;
    /// their extents stay allocated until [`RunSet::rewind_space`].
    pub(crate) fn remove_ids(&mut self, ids: &[u64]) {
        let gone = |r: &&Arc<SortedRun>| ids.contains(&r.id);
        self.free_space(self.runs.iter().filter(gone).map(|r| r.bytes).sum());
        self.runs = self.runs.iter().filter(|r| !gone(r)).cloned().collect();
    }

    /// The `N` earliest adjacent 1-pass runs to merge when the run count
    /// exceeds the query-page budget (Figure 8, Table Range Scan Setup
    /// lines 5–8). Returns `None` when no merge is needed or possible.
    pub(crate) fn plan_merge(&self, cfg: &MasmConfig) -> Option<Vec<Arc<SortedRun>>> {
        let budget = cfg.query_pages() as usize;
        if self.runs.len() <= budget {
            return None;
        }
        let n = cfg.n_merge() as usize;
        let one_pass: Vec<Arc<SortedRun>> = self
            .runs
            .iter()
            .filter(|r| r.passes == 1)
            .take(n)
            .cloned()
            .collect();
        (one_pass.len() >= 2).then_some(one_pass)
    }

    /// Whether cached updates have reached the migration threshold.
    pub(crate) fn needs_migration(&self, cfg: &MasmConfig) -> bool {
        self.live_bytes() >= cfg.migration_trigger_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masm_blockrun::BlockRunMeta;

    fn dummy_run(id: u64, passes: u8, min_ts: u64, bytes: u64) -> Arc<SortedRun> {
        Arc::new(SortedRun {
            id,
            base: 0,
            bytes,
            count: 1,
            min_key: 0,
            max_key: 10,
            min_ts,
            max_ts: min_ts,
            passes,
            meta: Arc::new(BlockRunMeta::synthetic(0, 10, min_ts, min_ts, 1)),
        })
    }

    fn small_cfg() -> MasmConfig {
        // M = 32, S = 16, query pages = 16, N = clamp(0.375*32+1)=13.
        MasmConfig::small_for_tests()
    }

    #[test]
    fn add_keeps_min_ts_order() {
        let mut rs = RunSet::new();
        rs.add(dummy_run(2, 1, 20, 100));
        rs.add(dummy_run(1, 1, 10, 100));
        rs.add(dummy_run(3, 2, 5, 100));
        let ids: Vec<u64> = rs.runs().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn a_shared_slice_is_a_snapshot() {
        let mut rs = RunSet::new();
        rs.add(dummy_run(1, 1, 10, 100));
        rs.add(dummy_run(2, 1, 20, 100));
        let pinned = rs.shared();
        rs.add(dummy_run(3, 1, 5, 100));
        rs.remove_ids(&[1]);
        let ids = |runs: &[Arc<SortedRun>]| runs.iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(&pinned), vec![1, 2], "what was pinned stays as it was");
        assert_eq!(ids(rs.runs()), vec![3, 2]);
        assert_eq!(ids(&rs.shared()), vec![3, 2]);
    }

    #[test]
    fn space_accounting() {
        let mut rs = RunSet::new();
        let off = rs.alloc_space(100);
        assert_eq!(off, 0);
        rs.add(dummy_run(0, 1, 1, 100));
        assert_eq!(rs.live_bytes(), 100);
        rs.remove_ids(&[0]);
        assert_eq!(rs.live_bytes(), 0);
        assert!(rs.is_empty());
        // A snapshot pinned before the removal may still read the
        // extent: only the quiesce rewind lowers the high-water mark.
        assert_eq!(rs.alloc_space(10), 100, "no rewind on removal");
    }

    #[test]
    fn plan_merge_triggers_over_budget() {
        let cfg = small_cfg();
        let budget = cfg.query_pages() as usize;
        let mut rs = RunSet::new();
        for i in 0..budget as u64 {
            rs.add(dummy_run(i, 1, i + 1, 10));
        }
        assert!(rs.plan_merge(&cfg).is_none(), "at budget: no merge");
        rs.add(dummy_run(99, 1, 99, 10));
        let plan = rs.plan_merge(&cfg).expect("over budget");
        assert_eq!(plan.len() as u64, cfg.n_merge());
        // The plan takes the earliest runs.
        assert_eq!(plan[0].min_ts, 1);
    }

    #[test]
    fn plan_merge_skips_two_pass_runs() {
        let cfg = small_cfg();
        let budget = cfg.query_pages() as usize;
        let mut rs = RunSet::new();
        rs.add(dummy_run(1000, 2, 0, 10)); // a 2-pass run, earliest
        for i in 0..budget as u64 {
            rs.add(dummy_run(i, 1, i + 1, 10));
        }
        let plan = rs.plan_merge(&cfg).expect("over budget");
        assert!(plan.iter().all(|r| r.passes == 1));
    }

    #[test]
    fn needs_migration_threshold() {
        let cfg = small_cfg(); // capacity 4 MiB, threshold 90%
        let mut rs = RunSet::new();
        let big = (cfg.ssd_capacity as f64 * 0.91) as u64;
        rs.alloc_space(big);
        rs.add(dummy_run(0, 1, 1, big));
        assert!(rs.needs_migration(&cfg));
        rs.remove_ids(&[0]);
        assert!(!rs.needs_migration(&cfg));
    }

    #[test]
    fn id_sequence() {
        let mut rs = RunSet::new();
        assert_eq!(rs.next_id(), 0);
        assert_eq!(rs.next_id(), 1);
        rs.resume_ids_after(10);
        assert_eq!(rs.next_id(), 11);
    }
}
