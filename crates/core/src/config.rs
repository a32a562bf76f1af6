//! MaSM configuration (Table 1 parameters and §3.5 knobs).
//!
//! The paper's parameters, with `P` = SSD page size:
//!
//! | symbol    | meaning                                              |
//! |-----------|------------------------------------------------------|
//! | `‖SSD‖`   | SSD capacity in pages, `‖SSD‖ = M²`                  |
//! | `M`       | memory (in pages) of the plain MaSM-M algorithm      |
//! | `α`       | memory scale: MaSM-αM uses `αM` pages of memory      |
//! | `S`       | pages buffering incoming updates (`S_opt = 0.5αM`)   |
//! | `N`       | 1-pass runs merged into one 2-pass run (Thm 3.3)     |
//!
//! The experimental defaults match §4.1: 64 KB SSD I/O pages, 4 GB flash
//! space (so `M = 256` pages = 16 MB of memory for MaSM-M), fine-grain
//! run index (one entry per 4 KB of cached updates).
//!
//! Maintenance has no knobs: flush, compaction and migration run on the
//! thread of the caller that needs them (see [`crate::engine`]). The
//! `background_workers` field is a leftover name with one legal value,
//! 0.

use crate::error::{MasmError, MasmResult};

pub use masm_codec::CodecChoice;

/// Granularity of the run's read-only index (§3.5 "Granularity of Run
/// Index").
///
/// With the block-run format (`masm-blockrun`) this is the **data-block
/// size**: one zone-map entry indexes one block, so the granularity is
/// both the pruning resolution and the read I/O unit of a run. Fine
/// granularity (4 KB blocks) keeps a 4 KB range scan at ≈4 KB read per
/// run — the paper's headline ≤1.07× result; coarse granularity (64 KB
/// blocks, the §4.1 SSD page) minimizes metadata and per-I/O overhead
/// for large scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexGranularity {
    /// 64 KB blocks — minimal metadata, best for very large ranges.
    Coarse,
    /// 4 KB blocks — precise enough that a 4 KB range scan reads ≈4 KB
    /// per run (the paper's headline setting).
    Fine,
    /// Custom block size in bytes.
    Bytes(u64),
}

impl IndexGranularity {
    /// Bytes of cached updates covered by one index entry.
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            IndexGranularity::Coarse => 64 * 1024,
            IndexGranularity::Fine => 4 * 1024,
            IndexGranularity::Bytes(b) => *b,
        }
    }
}

/// Upper bound on the async prefetch depth of merge and migration reads
/// (see [`MasmConfig::merge_prefetch_depth`]).
const MERGE_PREFETCH_CAP: usize = 16;

/// Bloom-filter budget per materialized run, in bits per key (10 ⇒
/// ≈0.8% false positives).
const BLOOM_BITS_PER_KEY: u32 = 10;

/// Configuration of a [`crate::engine::MasmEngine`].
#[derive(Debug, Clone)]
pub struct MasmConfig {
    /// SSD I/O page size `P` (64 KB in §4.1).
    pub ssd_page_size: usize,
    /// SSD update-cache capacity in bytes (`‖SSD‖ · P`).
    pub ssd_capacity: u64,
    /// Memory scale α ∈ (0, 2]: the algorithm uses `αM` pages of memory.
    /// α = 1 is MaSM-M, α = 2 is MaSM-2M.
    pub alpha: f64,
    /// Run index granularity.
    pub index_granularity: IndexGranularity,
    /// Fraction of SSD capacity at which the engine reports that
    /// migration is needed (90% in §1.2).
    pub migration_threshold: f64,
    /// Merge duplicate updates to the same key while materializing a
    /// sorted run, when no concurrent query timestamp falls between them
    /// (§3.5 "Handling Skews").
    pub merge_duplicates: bool,
    /// Compression codec for every block of a materialized run (one
    /// codec per run, [`CodecChoice::Delta`] by default). Compression multiplies
    /// the effective SSD update cache and cuts merge-read bandwidth at
    /// the price of encode/decode CPU — the trade `repro fig13_cpu_cost`
    /// measures per codec.
    pub codec: CodecChoice,
    /// Capacity of the shared block cache holding decoded run blocks,
    /// in bytes (tier 1; scan-resistant SLRU with the cache's default
    /// 80 % protected segment).
    pub block_cache_bytes: usize,
    /// Capacity of the cache's compressed victim tier in **stored**
    /// (post-codec) bytes; 0 disables it. Tier-1 victims demote their
    /// compressed bytes here, so a re-reference costs one codec decode
    /// instead of a device read — the tier's effective block count is
    /// multiplied by the codec's compression ratio.
    pub cache_tier2_bytes: usize,
    /// Must be 0: every flush, compaction and migration runs on the
    /// thread of the caller that needs it. The field stays only because
    /// the frozen benchmark crate sets it by name; the next change to
    /// that crate deletes it. [`MasmConfig::validate`] refuses any
    /// other value with [`MasmError::Config`].
    pub background_workers: usize,
}

impl Default for MasmConfig {
    fn default() -> Self {
        MasmConfig {
            ssd_page_size: 64 * 1024,
            ssd_capacity: 4 * masm_storage::GIB,
            alpha: 1.0,
            index_granularity: IndexGranularity::Fine,
            migration_threshold: 0.9,
            merge_duplicates: true,
            codec: CodecChoice::Delta,
            block_cache_bytes: 8 * 1024 * 1024,
            cache_tier2_bytes: 4 * 1024 * 1024,
            background_workers: 0,
        }
    }
}

impl MasmConfig {
    /// A small configuration for unit tests: 4 KB SSD pages, tiny cache.
    pub fn small_for_tests() -> Self {
        MasmConfig {
            ssd_page_size: 4096,
            ssd_capacity: 1024 * 4096, // 1024 pages => M = 32
            index_granularity: IndexGranularity::Bytes(1024),
            block_cache_bytes: 2 * 1024 * 1024,
            cache_tier2_bytes: 1024 * 1024,
            ..MasmConfig::default()
        }
    }

    /// Async prefetch depth of *each* run scan of a merge or migration
    /// over `fan_in` input runs: min(k, 16) for k runs, so the k scans
    /// together keep up to k·min(k, 16) reads in flight (§3.7 overlap
    /// at scale) — 864 reads of 4 KiB blocks, 3.4 MiB of buffers, for a
    /// 54-run migration. The cap bounds one scan's queue, not the
    /// merge's.
    pub(crate) fn merge_prefetch_depth(&self, fan_in: usize) -> usize {
        fan_in.clamp(1, MERGE_PREFETCH_CAP)
    }

    /// SSD capacity in pages: `‖SSD‖`.
    pub(crate) fn ssd_pages(&self) -> u64 {
        self.ssd_capacity / self.ssd_page_size as u64
    }

    /// `M = sqrt(‖SSD‖)` — the memory (in pages) of plain MaSM-M
    /// (two-pass external sort needs `sqrt` of the data size).
    pub fn m_pages(&self) -> u64 {
        (self.ssd_pages() as f64).sqrt().ceil() as u64
    }

    /// Total memory pages `αM` available to this configuration.
    pub(crate) fn total_memory_pages(&self) -> u64 {
        ((self.alpha * self.m_pages() as f64).round() as u64).max(2)
    }

    /// Total memory in bytes.
    pub fn total_memory_bytes(&self) -> u64 {
        self.total_memory_pages() * self.ssd_page_size as u64
    }

    /// `S_opt = 0.5αM`: pages dedicated to buffering incoming updates
    /// (Theorem 3.3).
    pub(crate) fn s_pages(&self) -> u64 {
        (self.total_memory_pages() / 2).max(1)
    }

    /// Update-buffer capacity in bytes (`S · P`).
    pub(crate) fn update_buffer_bytes(&self) -> u64 {
        self.s_pages() * self.ssd_page_size as u64
    }

    /// Query pages: `αM − S`, the bound on concurrently open sorted runs.
    pub fn query_pages(&self) -> u64 {
        (self.total_memory_pages() - self.s_pages()).max(1)
    }

    /// `N_opt` of Theorem 3.3: how many earliest 1-pass runs merge into a
    /// 2-pass run, clamped to at least 2 so a merge always shrinks the
    /// run count.
    pub(crate) fn n_merge(&self) -> u64 {
        let m = self.m_pages() as f64;
        let a = self.alpha;
        let denom = (4.0 / (a * a)).floor().max(1.0);
        let n = (1.0 / denom) * (2.0 / a - 0.5 * a) * m + 1.0;
        (n.round() as u64).clamp(2, self.query_pages().max(2))
    }

    /// Migration trigger level in bytes.
    pub fn migration_trigger_bytes(&self) -> u64 {
        (self.ssd_capacity as f64 * self.migration_threshold) as u64
    }

    /// Data-block size of materialized runs: the run-index
    /// granularity, never below the format's 64-byte minimum.
    pub(crate) fn effective_block_bytes(&self) -> usize {
        (self.index_granularity.bytes() as usize).max(64)
    }

    /// Parameters handed to `masm-blockrun` when materializing a run.
    pub fn blockrun_config(&self) -> masm_blockrun::BlockRunConfig {
        masm_blockrun::BlockRunConfig {
            block_bytes: self.effective_block_bytes(),
            bloom_bits_per_key: BLOOM_BITS_PER_KEY,
            codec: self.codec,
        }
    }

    /// Parameters of the engine's shared block cache: the tier-1 and
    /// compressed-victim-tier budgets over the cache's defaults.
    pub fn cache_config(&self) -> masm_blockrun::BlockCacheConfig {
        masm_blockrun::BlockCacheConfig {
            tier2_bytes: self.cache_tier2_bytes,
            ..masm_blockrun::BlockCacheConfig::new(self.block_cache_bytes)
        }
    }

    /// Validate invariants; call before constructing an engine.
    pub fn validate(&self) -> MasmResult<()> {
        if self.ssd_page_size < 1024 {
            return Err(MasmError::Config("ssd_page_size must be ≥ 1 KiB".into()));
        }
        if self.ssd_capacity < (self.ssd_page_size as u64) * 4 {
            return Err(MasmError::Config("ssd_capacity too small".into()));
        }
        let m = self.m_pages() as f64;
        let min_alpha = 2.0 / m.cbrt();
        if !(self.alpha > 0.0 && self.alpha <= 2.0) {
            return Err(MasmError::Config(format!(
                "alpha must be in (0, 2], got {}",
                self.alpha
            )));
        }
        if self.alpha < min_alpha {
            return Err(MasmError::Config(format!(
                "alpha {} below lower bound 2/M^(1/3) = {min_alpha:.4} (3-pass sorts \
                 would be required; see §3.4)",
                self.alpha
            )));
        }
        if !(0.0..=1.0).contains(&self.migration_threshold) {
            return Err(MasmError::Config(
                "migration_threshold must be in [0,1]".into(),
            ));
        }
        if self.background_workers != 0 {
            return Err(MasmError::Config(
                "background_workers must be 0: maintenance runs on the caller's thread".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_give_16mb_memory() {
        // §4.1: 4 GB flash, 64 KB pages => M = 256 pages = 16 MB.
        let c = MasmConfig::default();
        assert_eq!(c.ssd_pages(), 65536);
        assert_eq!(c.m_pages(), 256);
        assert_eq!(c.total_memory_pages(), 256);
        assert_eq!(c.total_memory_bytes(), 16 * 1024 * 1024);
    }

    #[test]
    fn masm_m_split_matches_theorem_3_2() {
        // S_opt = 0.5 M = 128; N_opt = 0.375 M + 1 = 97.
        let c = MasmConfig::default();
        assert_eq!(c.s_pages(), 128);
        assert_eq!(c.n_merge(), 97);
        assert_eq!(c.query_pages(), 128);
    }

    #[test]
    fn masm_2m_never_needs_merges() {
        let c = MasmConfig {
            alpha: 2.0,
            ..MasmConfig::default()
        };
        assert_eq!(c.total_memory_pages(), 512);
        assert_eq!(c.s_pages(), 256); // buffer of M pages
        assert_eq!(c.query_pages(), 256); // can hold all M runs
                                          // N degenerates (no merging is ever triggered since runs ≤ M).
        assert!(c.n_merge() >= 2);
    }

    #[test]
    fn validation_rejects_bad_alpha() {
        let at_alpha = |alpha| MasmConfig {
            alpha,
            ..MasmConfig::default()
        };
        assert!(at_alpha(0.0).validate().is_err());
        assert!(at_alpha(2.5).validate().is_err());
        // Below 2/M^(1/3) = 2/6.35 ≈ 0.315 for M=256.
        assert!(at_alpha(0.2).validate().is_err());
        assert!(at_alpha(0.4).validate().is_ok());
        assert!(MasmConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_any_worker_count_but_zero() {
        let workers = |background_workers| MasmConfig {
            background_workers,
            ..MasmConfig::small_for_tests()
        };
        assert!(workers(0).validate().is_ok());
        for n in [1, 2, 64] {
            assert!(
                matches!(workers(n).validate(), Err(MasmError::Config(_))),
                "{n} workers"
            );
        }
    }

    #[test]
    fn index_granularities() {
        assert_eq!(IndexGranularity::Coarse.bytes(), 65536);
        assert_eq!(IndexGranularity::Fine.bytes(), 4096);
        assert_eq!(IndexGranularity::Bytes(512).bytes(), 512);
    }

    #[test]
    fn effective_block_size_is_the_granularity_with_a_floor() {
        let mut c = MasmConfig::default();
        assert_eq!(c.effective_block_bytes(), 4096);
        c.index_granularity = IndexGranularity::Coarse;
        assert_eq!(c.effective_block_bytes(), 65536);
        c.index_granularity = IndexGranularity::Bytes(16);
        assert_eq!(c.effective_block_bytes(), 64, "floor applies");
        assert_eq!(c.blockrun_config().bloom_bits_per_key, 10);
        assert_eq!(c.blockrun_config().codec, CodecChoice::Delta);
        c.codec = CodecChoice::Lz;
        assert_eq!(c.blockrun_config().codec, CodecChoice::Lz);
    }

    #[test]
    fn merge_prefetch_depth_follows_fan_in_up_to_cap() {
        let c = MasmConfig::small_for_tests();
        assert_eq!(c.merge_prefetch_depth(0), 1);
        assert_eq!(c.merge_prefetch_depth(3), 3);
        assert_eq!(c.merge_prefetch_depth(100), MERGE_PREFETCH_CAP);
    }

    #[test]
    fn cache_config_carries_both_tier_budgets() {
        let mut c = MasmConfig::default();
        let cc = c.cache_config();
        assert_eq!(cc.policy, masm_blockrun::CachePolicy::Slru);
        assert_eq!(cc.capacity_bytes, c.block_cache_bytes);
        assert_eq!(cc.tier2_bytes, c.cache_tier2_bytes);
        c.cache_tier2_bytes = 0;
        assert_eq!(c.cache_config().tier2_bytes, 0);
    }

    #[test]
    fn small_test_config_is_valid() {
        let c = MasmConfig::small_for_tests();
        c.validate().unwrap();
        assert_eq!(c.m_pages(), 32);
        assert_eq!(c.s_pages(), 16);
    }
}
