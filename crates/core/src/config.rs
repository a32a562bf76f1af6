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

use masm_pagestore::Key;

use crate::error::{MasmError, MasmResult};

pub use masm_codec::CodecChoice;

/// Key-range sharding of one logical table over several MaSM engines,
/// one per contiguous key range. The topology *is* its split keys —
/// the lower bounds of every shard but the first, exactly what a
/// [`crate::ShardRouter`] routes by and a [`crate::ShardManifest`]
/// stores: none (the default) is the unsharded engine, `n` keys make
/// `n + 1` shards. [`crate::ShardRouter::uniform`] and
/// [`crate::ShardRouter::from_sample`] compute split keys for callers
/// that have no natural boundaries of their own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardingConfig {
    /// Strictly ascending, non-zero split keys (at most 63).
    pub splits: Vec<Key>,
}

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
    pub fn bytes(&self) -> u64 {
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
/// ≈0.8% false positives). It shapes the run format, so
/// [`MasmConfig::fingerprint`] mixes it.
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
    /// Per-block compression codec for materialized runs. Fixed choices
    /// always use that codec; [`CodecChoice::Adaptive`] trial-encodes
    /// each block and keeps the smallest output. Compression multiplies
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
    /// Background worker threads. `0` (the default) keeps the engine's
    /// original inline execution: flushes and merges run on the caller's
    /// thread, deterministically. With `n > 0` the engine spawns `n`
    /// worker threads that drain a backlog queue of flush / compaction /
    /// migration jobs, so `apply_update` never pays a materialization
    /// inline and scans never pay a merge at setup — callers only
    /// throttle through the [`MasmConfig::worker_backlog_bytes`]
    /// backpressure gate.
    pub background_workers: usize,
    /// Backpressure bound on the flush backlog: when the bytes of
    /// sealed (drained-but-not-yet-materialized) update batches exceed
    /// this, `apply_update` blocks until a worker catches up. `0` means
    /// auto: 4× the update-buffer capacity. Ignored when
    /// [`MasmConfig::background_workers`] is 0.
    pub worker_backlog_bytes: u64,
    /// Key-range sharding over several per-range MaSM engines. The
    /// single-engine budgets above are *totals*: a sharded engine
    /// divides flash capacity, cache tiers, and the flush backlog
    /// evenly across shards (see [`MasmConfig::shard_config`]).
    pub sharding: ShardingConfig,
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
            worker_backlog_bytes: 0,
            sharding: ShardingConfig::default(),
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

    /// Effective backpressure bound for the background-flush backlog
    /// (see [`MasmConfig::worker_backlog_bytes`]; 0 = 4× the update
    /// buffer).
    pub fn effective_backlog_bytes(&self) -> u64 {
        if self.worker_backlog_bytes > 0 {
            self.worker_backlog_bytes
        } else {
            4 * self.update_buffer_bytes()
        }
    }

    /// Async prefetch depth of the merge and migration reads over
    /// `fan_in` input runs: k runs ⇒ k reads in flight (§3.7 overlap at
    /// scale), capped at 16 so a very wide merge cannot flood the
    /// device queue.
    pub fn merge_prefetch_depth(&self, fan_in: usize) -> usize {
        fan_in.clamp(1, MERGE_PREFETCH_CAP)
    }

    /// Stable fingerprint of the fields that shape the *durable* layout:
    /// SSD page/region geometry, run block format knobs, and the shard
    /// topology. Stored in the [`crate::ShardManifest`] and re-checked
    /// at [`crate::ShardedEngine::recover`], so recovering with a
    /// config whose on-flash layout disagrees with what was written is
    /// rejected up front instead of misreading runs. Runtime-only knobs
    /// (cache sizes, worker counts, α) deliberately do not participate:
    /// they may change freely across restarts.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a, 64-bit: dependency-free and stable across builds.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.ssd_page_size as u64);
        mix(self.ssd_capacity);
        // Where an SSD region offset was mixed in: fingerprints already
        // written to redo logs must keep matching.
        mix(0);
        mix(self.index_granularity.bytes());
        mix(BLOOM_BITS_PER_KEY as u64);
        mix(self.sharding.splits.len() as u64 + 1);
        h
    }

    /// SSD capacity in pages: `‖SSD‖`.
    pub fn ssd_pages(&self) -> u64 {
        self.ssd_capacity / self.ssd_page_size as u64
    }

    /// `M = sqrt(‖SSD‖)` — the memory (in pages) of plain MaSM-M
    /// (two-pass external sort needs `sqrt` of the data size).
    pub fn m_pages(&self) -> u64 {
        (self.ssd_pages() as f64).sqrt().ceil() as u64
    }

    /// Total memory pages `αM` available to this configuration.
    pub fn total_memory_pages(&self) -> u64 {
        ((self.alpha * self.m_pages() as f64).round() as u64).max(2)
    }

    /// Total memory in bytes.
    pub fn total_memory_bytes(&self) -> u64 {
        self.total_memory_pages() * self.ssd_page_size as u64
    }

    /// `S_opt = 0.5αM`: pages dedicated to buffering incoming updates
    /// (Theorem 3.3).
    pub fn s_pages(&self) -> u64 {
        (self.total_memory_pages() / 2).max(1)
    }

    /// Update-buffer capacity in bytes (`S · P`).
    pub fn update_buffer_bytes(&self) -> u64 {
        self.s_pages() * self.ssd_page_size as u64
    }

    /// Query pages: `αM − S`, the bound on concurrently open sorted runs.
    pub fn query_pages(&self) -> u64 {
        (self.total_memory_pages() - self.s_pages()).max(1)
    }

    /// `N_opt` of Theorem 3.3: how many earliest 1-pass runs merge into a
    /// 2-pass run, clamped to at least 2 so a merge always shrinks the
    /// run count.
    pub fn n_merge(&self) -> u64 {
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
    pub fn effective_block_bytes(&self) -> usize {
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

    /// The configuration of shard `shard_id` under this config's
    /// [`ShardingConfig`]. Shared budgets divide evenly: flash capacity
    /// (rounded down to whole SSD pages), both block-cache tiers, and
    /// the flush-backlog bound each get a `1/shards` slice, so N shards
    /// together never exceed what the unsharded config would use. The
    /// per-shard memory (`αM` with `M = √‖SSD‖/N`) shrinks with the
    /// per-shard flash slice exactly as the paper's formulas dictate.
    /// The result is a valid unsharded configuration or an error.
    pub fn shard_config(&self, shard_id: usize) -> MasmResult<MasmConfig> {
        let n = self.sharding.splits.len() + 1;
        if shard_id >= n {
            return Err(MasmError::Config(format!(
                "shard_id {shard_id} out of range for {n} shards"
            )));
        }
        let mut cfg = self.clone();
        cfg.sharding = ShardingConfig::default();
        let page = self.ssd_page_size as u64;
        let per = self.ssd_capacity / n as u64;
        cfg.ssd_capacity = per - per % page;
        cfg.block_cache_bytes = self.block_cache_bytes / n;
        cfg.cache_tier2_bytes = self.cache_tier2_bytes / n;
        cfg.worker_backlog_bytes = self.worker_backlog_bytes / n as u64;
        cfg.validate()?;
        Ok(cfg)
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
        if self.background_workers > 64 {
            return Err(MasmError::Config("background_workers must be ≤ 64".into()));
        }
        // The split-key rule lives with the router that routes by it.
        let shards = crate::ShardRouter::from_splits(self.sharding.splits.clone())?.shards();
        if shards > 64 {
            return Err(MasmError::Config(format!(
                "{shards} shards: at most 64 are supported"
            )));
        }
        if self.ssd_capacity / (shards as u64) < (self.ssd_page_size as u64) * 4 {
            return Err(MasmError::Config(
                "ssd_capacity too small to divide across shards".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_layout_not_runtime_knobs() {
        let base = MasmConfig::small_for_tests();
        assert_eq!(base.fingerprint(), base.fingerprint());
        let mut runtime = base.clone();
        runtime.background_workers = 4;
        runtime.block_cache_bytes *= 2;
        runtime.alpha = 2.0;
        assert_eq!(base.fingerprint(), runtime.fingerprint());
        let mut layout = base.clone();
        layout.ssd_page_size *= 2;
        assert_ne!(base.fingerprint(), layout.fingerprint());
        let mut topo = base.clone();
        topo.sharding.splits = vec![101_000, 102_000];
        assert_ne!(base.fingerprint(), topo.fingerprint());
        // The durable format: a deployment written before the topology
        // became its split keys still recovers (the fingerprint mixes
        // the shard count, `splits.len() + 1`).
        assert_eq!(base.fingerprint(), 0xdffd_2bec_8bbc_6ae2);
        assert_eq!(topo.fingerprint(), 0xa207_9dda_75dd_d6a0);
        assert_eq!(MasmConfig::default().fingerprint(), 0x34c8_e172_5a2c_6626);
    }

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
        c.codec = CodecChoice::Adaptive;
        assert_eq!(c.blockrun_config().codec, CodecChoice::Adaptive);
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

    #[test]
    fn shard_config_divides_budgets() {
        let mut c = MasmConfig::default();
        c.sharding.splits = vec![10, 20, 30];
        c.validate().unwrap();
        let s = c.shard_config(2).unwrap();
        assert_eq!(s.sharding, ShardingConfig::default(), "unsharded");
        assert_eq!(s.ssd_capacity, masm_storage::GIB);
        assert_eq!(s.ssd_capacity % s.ssd_page_size as u64, 0);
        assert_eq!(s.block_cache_bytes, c.block_cache_bytes / 4);
        assert_eq!(s.cache_tier2_bytes, c.cache_tier2_bytes / 4);
        // Per-shard memory shrinks with the flash slice: M = √(‖SSD‖/4).
        assert_eq!(s.m_pages(), 128);
        assert!(c.shard_config(4).is_err(), "shard_id out of range");
        // Four shard slices never exceed the unsharded budget.
        let total: u64 = (0..4)
            .map(|i| c.shard_config(i).unwrap().ssd_capacity)
            .sum();
        assert!(total <= c.ssd_capacity);
    }

    #[test]
    fn validation_rejects_bad_sharding() {
        let mut c = MasmConfig::default();
        c.sharding.splits = (1..=64).collect();
        assert!(c.validate().is_err(), "65 shards");
        c.sharding.splits = vec![0];
        assert!(c.validate().is_err(), "zero split");
        c.sharding.splits = vec![1 << 32];
        assert!(c.validate().is_ok());
        c.sharding.splits = vec![100, 100];
        assert!(c.validate().is_err(), "splits must strictly ascend");
        // Dividing a tiny flash budget across shards must fail loudly.
        let mut tiny = MasmConfig::small_for_tests();
        tiny.ssd_capacity = 4 * 4096;
        tiny.sharding.splits = vec![7];
        assert!(tiny.validate().is_err());
    }
}
