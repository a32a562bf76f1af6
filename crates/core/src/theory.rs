//! Closed-form models from the paper: Theorem 3.3, the LSM
//! write-amplification analysis of §2.3, and the migration-overhead
//! trade-off behind Figure 1 and §3.7.

/// Average SSD writes per update record for MaSM-αM (Theorem 3.3):
/// roughly `2 − 0.25 α²`.
pub fn masm_alpha_writes_per_update(alpha: f64) -> f64 {
    2.0 - 0.25 * alpha * alpha
}

/// Optimal `(S, N)` for MaSM-αM (Theorem 3.3): `S_opt = 0.5αM`,
/// `N_opt = (1/⌊4/α²⌋)(2/α − 0.5α)M + 1`.
pub fn masm_alpha_params(alpha: f64, m_pages: u64) -> (u64, u64) {
    let m = m_pages as f64;
    let s = (0.5 * alpha * m).round() as u64;
    let denom = (4.0 / (alpha * alpha)).floor().max(1.0);
    let n = ((1.0 / denom) * (2.0 / alpha - 0.5 * alpha) * m + 1.0).round() as u64;
    (s, n.max(1))
}

/// LSM writes per update entry (§2.3): with `h` SSD-resident levels in a
/// geometric progression of ratio `r = (flash/mem)^(1/h)`, levels
/// `1..h-1` cost about `r + 1` writes each and level `h` costs
/// `(r + 1)/2`.
pub fn lsm_writes_per_update(flash_pages: u64, mem_pages: u64, h: u32) -> f64 {
    assert!(h >= 1);
    let ratio = flash_pages as f64 / mem_pages as f64;
    let r = ratio.powf(1.0 / h as f64);
    (h as f64 - 1.0) * (r + 1.0) + (r + 1.0) / 2.0
}

/// The `h` minimizing [`lsm_writes_per_update`], searched over 1..=16.
pub fn lsm_optimal_levels(flash_pages: u64, mem_pages: u64) -> (u32, f64) {
    (1..=16u32)
        .map(|h| (h, lsm_writes_per_update(flash_pages, mem_pages, h)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty range")
}

/// Migration model behind Figure 1 and §3.7.
///
/// A migration scans the whole DW and writes it back:
/// `cost ≈ 2 · disk_bytes / disk_bw` seconds, amortized over the bytes of
/// updates the cache absorbs between migrations. The *overhead rate*
/// (seconds of migration per byte of ingested updates) is therefore
/// `2 · disk_bytes / (disk_bw · cache_bytes)`.
#[derive(Debug, Clone, Copy)]
pub struct MigrationModel {
    /// Main-data size in bytes.
    pub disk_bytes: f64,
    /// Disk sequential bandwidth in bytes/s.
    pub disk_bw: f64,
    /// SSD page size P in bytes.
    pub ssd_page: f64,
}

impl MigrationModel {
    /// The paper's setup: 100 GB table, 77 MB/s disk, 64 KB SSD pages.
    pub fn paper_defaults() -> Self {
        MigrationModel {
            disk_bytes: 100.0e9,
            disk_bw: 77.0e6,
            ssd_page: 65536.0,
        }
    }

    /// Seconds of one full migration (scan + write back).
    pub(crate) fn migration_seconds(&self) -> f64 {
        2.0 * self.disk_bytes / self.disk_bw
    }

    /// Overhead rate for the **prior approach** (in-memory update cache
    /// of `mem_bytes`): migration cost amortized over `mem_bytes` of
    /// updates. Halving migration overhead needs doubling memory.
    pub fn in_memory_overhead(&self, mem_bytes: f64) -> f64 {
        self.migration_seconds() / mem_bytes
    }

    /// Overhead rate for **MaSM-αM** with `mem_bytes = αM·P` of memory:
    /// the SSD cache holds `M²·P = mem²/(α²P)` bytes, so the overhead
    /// falls with the *square* of memory (§3.7: doubling memory cuts
    /// migration frequency 4×).
    pub fn masm_overhead(&self, mem_bytes: f64, alpha: f64) -> f64 {
        let cache_bytes = (mem_bytes * mem_bytes) / (alpha * alpha * self.ssd_page);
        self.migration_seconds() / cache_bytes
    }

    /// SSD cache size (bytes) reachable with `mem_bytes` of memory.
    pub fn masm_cache_bytes(&self, mem_bytes: f64, alpha: f64) -> f64 {
        (mem_bytes * mem_bytes) / (alpha * alpha * self.ssd_page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_3_3_endpoints() {
        assert!((masm_alpha_writes_per_update(1.0) - 1.75).abs() < 1e-9);
        assert!((masm_alpha_writes_per_update(2.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_params_match_theorems() {
        let (s, n) = masm_alpha_params(1.0, 256);
        assert_eq!(s, 128); // 0.5 M
        assert_eq!(n, 97); // 0.375 M + 1
        let (s2, _) = masm_alpha_params(2.0, 256);
        assert_eq!(s2, 256); // M pages of buffer for MaSM-2M
    }

    #[test]
    fn lsm_write_amp_matches_paper_examples() {
        // 4 GB flash / 16 MB memory in 64 KB pages: 65536 / 256.
        let w1 = lsm_writes_per_update(65536, 256, 1);
        assert!((w1 - 128.5).abs() < 1.0, "h=1 got {w1}");
        let w4 = lsm_writes_per_update(65536, 256, 4);
        assert!((17.0 - w4).abs() < 1.0, "h=4 got {w4}");
        let (h_opt, w_opt) = lsm_optimal_levels(65536, 256);
        assert_eq!(h_opt, 4, "paper: optimal LSM has h = 4");
        assert!(w_opt < 18.0);
    }

    #[test]
    fn masm_overhead_quadratic_in_memory() {
        let m = MigrationModel::paper_defaults();
        let o1 = m.masm_overhead(16.0e6, 1.0);
        let o2 = m.masm_overhead(32.0e6, 1.0);
        let ratio = o1 / o2;
        assert!(
            (ratio - 4.0).abs() < 0.01,
            "doubling memory → 4× lower: {ratio}"
        );
        // Prior approach: only 2×.
        let p1 = m.in_memory_overhead(16.0e6);
        let p2 = m.in_memory_overhead(32.0e6);
        assert!((p1 / p2 - 2.0).abs() < 0.01);
    }

    #[test]
    fn paper_footprint_example() {
        // §3.7: with P = 64 KB, a 32 MB MaSM-M buffer matches the
        // migration overhead of a 16 GB in-memory cache.
        let m = MigrationModel::paper_defaults();
        let masm = m.masm_cache_bytes(32.0 * 1024.0 * 1024.0, 1.0); // 32 MiB
        let target = 16.0 * 1024.0 * 1024.0 * 1024.0; // 16 GiB
        let ratio = masm / target;
        assert!((0.9..1.1).contains(&ratio), "got ratio {ratio}");
    }
}
