//! Scan-resistant, two-tier sharded cache of run data blocks.
//!
//! Sits between run scans and the SSD. A block read off the device is
//! CRC-verified, run back through its codec, indexed once, and kept
//! here as that one flat buffer ([`FlatBlock`]) so later queries touching
//! the same hot run pages skip the SSD entirely (warm point lookups
//! issue *zero* device reads — asserted by tests and reported by
//! `repro fig09b_point_lookup` and `repro fig_cache_scan_resistance`).
//! Sharding by key hash keeps lock hold times short under concurrent
//! scans, the buffer-pool shape used by databases rather than one
//! global LRU lock.
//!
//! ## Tier 1 — decoded blocks, segmented (SLRU)
//!
//! Under the default [`CachePolicy::Slru`] each shard's decoded-block
//! population is split into two LRU segments:
//!
//! ```text
//!            insert (miss)                  re-reference
//! device ───────────────► ┌───────────┐ ───────────────► ┌───────────┐
//!                         │ probation │                  │ protected │
//!                         └─────┬─────┘ ◄─────────────── └─────┬─────┘
//!                               │          overflow demotes    │
//!                        evict  ▼                              ▼  evict
//!                         ┌──────────────────────────────────────┐
//!                         │ tier 2: stored (compressed) bytes    │
//!                         └──────────────────────────────────────┘
//! ```
//!
//! New blocks enter *probation*; only a second reference promotes them
//! to *protected* (capped at 80 % of tier-1 capacity). A one-shot
//! sequential sweep larger than the cache therefore churns through
//! probation and never displaces the protected hot set — the
//! scan-resistance the plain LRU lacked.
//! [`CachePolicy::Lru`] keeps the old single-list behavior as a
//! config-selectable baseline for benchmarks.
//!
//! ### What a block is charged
//!
//! The tier-1 budget is charged, per block, `Σ (size_of::<Entry>() +
//! value.len()) + 64` — the weight the same block had when it was kept
//! as a `Vec<Entry>`, computed once when the block is parsed
//! ([`FlatBlock::weight`]) — plus the stored bytes when they are
//! retained for tier 2. A flat block really occupies 24 bytes of header
//! and offset per entry where 40 are charged, so the charge is an
//! **upper bound** on what is resident and the cache stays inside its
//! budget; keeping the number is what keeps admissions, evictions and
//! therefore the device timeline what they were. Charging the true size
//! changes residency: a change of its own.
//!
//! ## Tier 2 — compressed victim tier
//!
//! When enabled ([`BlockCacheConfig::tier2_bytes`] > 0), a tier-1
//! victim's **stored** (post-codec) bytes — already known from the read
//! path via [`StoredBlock`] — are demoted into a second LRU charged by
//! *compressed* size. A re-reference of a demoted block costs one codec
//! decode instead of a device read, so the victim tier multiplies
//! effective capacity by the codec's compression ratio for the warm-ish
//! band. Tier-2 bytes were CRC-verified at admission, so promotion
//! decodes without re-checking.
//!
//! Keys are `(run_key, block_idx)`. Run keys are engine-assigned run
//! ids and are never reused (the id sequence is monotonic, including
//! across recovery), so entries of a deleted run can never be wrongly
//! served; they simply age out.
//!
//! Every event is counted exactly once, in the
//! [`masm_storage::stats::CacheStats`] recorder; [`BlockCache::stats`]
//! is the one place the numbers are read from.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use masm_storage::{CacheStats, CacheStatsSnapshot};
use parking_lot::Mutex;

use crate::block::{Entry, FlatBlock};

/// Count one event in a [`CacheStats`] field.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Cache key: `(run_key, block_idx)`.
pub type BlockKey = (u64, u32);

/// A decoded, CRC-verified data block: one flat buffer, shared between
/// the cache and every reader borrowing entries from it.
pub type CachedBlock = Arc<FlatBlock>;

/// What [`BlockCache::insert`] accepts as the decoded form of a block.
pub trait IntoCachedBlock {
    /// The block in the form the cache keeps.
    fn into_cached(self) -> CachedBlock;
}

impl IntoCachedBlock for CachedBlock {
    fn into_cached(self) -> CachedBlock {
        self
    }
}

/// For callers that hold owned entries — benchmarks and tests: the
/// entries are encoded and parsed again into a [`FlatBlock`].
/// No engine code path builds a `Vec<Entry>` to cache it.
impl IntoCachedBlock for Arc<Vec<Entry>> {
    fn into_cached(self) -> CachedBlock {
        Arc::new(FlatBlock::from_entries(&self))
    }
}

/// The stored (on-device, post-codec) form of a data block, as the read
/// path saw it: CRC-verified bytes plus everything needed to decode
/// them again. Carried into the cache on insert so tier-1 victims can
/// be demoted to the compressed victim tier without re-reading the
/// device.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    /// The verified stored bytes (shared, not copied, between tiers).
    pub bytes: Arc<Vec<u8>>,
    /// Id of the codec that produced the bytes ([`masm_codec::codec_for`]).
    pub codec_id: u8,
    /// Raw (flat, pre-codec) length the codec's decode must produce.
    pub raw_len: u32,
}

impl StoredBlock {
    /// Stored length in bytes — the tier-2 capacity charge and the
    /// device-read cost of the block.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Decode back to a block, via the same codec-stage-then-parse
    /// path device reads use ([`crate::format`]'s shared helper).
    /// `None` only if the bytes do not decode — impossible for bytes
    /// that were CRC-verified against their zone entry, so callers
    /// treat it as a plain miss.
    fn decode(&self) -> Option<FlatBlock> {
        crate::format::decode_stored_bytes(&self.bytes, self.codec_id, self.raw_len as usize).ok()
    }
}

/// Tier-1 replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Single LRU list — the pre-segmentation behavior, kept as a
    /// benchmark baseline. Thrashes on sequential sweeps > capacity.
    Lru,
    /// Segmented LRU: probation + protected, promotion on
    /// re-reference. Scan-resistant (the default).
    #[default]
    Slru,
}

/// Construction parameters of a [`BlockCache`].
#[derive(Debug, Clone)]
pub struct BlockCacheConfig {
    /// Tier-1 capacity in **decoded** bytes, across all shards.
    pub capacity_bytes: usize,
    /// Shard count (power of two recommended).
    pub shards: usize,
    /// Tier-1 replacement policy.
    pub policy: CachePolicy,
    /// Capacity of the compressed victim tier in **stored** bytes,
    /// across all shards (divided evenly per shard); 0 disables tier 2.
    /// A block whose stored bytes exceed the per-shard share is never
    /// retained or demoted — size the budget to at least
    /// `shards × stored block size` for the tier to do anything.
    pub tier2_bytes: usize,
}

const DEFAULT_SHARDS: usize = 16;

/// Fraction of tier-1 capacity reserved for the protected segment
/// under [`CachePolicy::Slru`]. The probation segment uses whatever the
/// protected population does not.
const PROTECTED_FRAC: f64 = 0.8;

impl BlockCacheConfig {
    /// Defaults for a tier-1 budget of `capacity_bytes`: SLRU with an
    /// 80% protected segment, victim tier disabled.
    pub fn new(capacity_bytes: usize) -> Self {
        BlockCacheConfig {
            capacity_bytes,
            shards: DEFAULT_SHARDS,
            policy: CachePolicy::Slru,
            tier2_bytes: 0,
        }
    }
}

/// Which tier-1 segment an entry lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

struct T1Entry {
    block: CachedBlock,
    /// Stored bytes kept for demotion into tier 2; `None` when the
    /// victim tier is disabled (no point carrying them).
    stored: Option<StoredBlock>,
    /// The tier-1 capacity charge: decoded in-memory weight plus the
    /// retained stored copy when the victim tier is enabled (see
    /// [`BlockCache::charge_of`]).
    weight: usize,
    /// On-disk (post-codec) bytes of the block, for the `disk_bytes`
    /// gauge. Purely informational in tier 1.
    disk_len: u32,
    last_used: u64,
    seg: Segment,
}

struct T2Entry {
    stored: StoredBlock,
    last_used: u64,
}

/// One shard: the tier-1 block map plus one recency index per segment
/// (`last_used` tick → key, ticks are globally unique), so each
/// segment's LRU victim is its index's first entry — eviction is
/// O(log n), not a scan of the whole shard — and the tier-2 victim map
/// with its own recency index.
#[derive(Default)]
struct Shard {
    map: HashMap<BlockKey, T1Entry>,
    probation_recency: BTreeMap<u64, BlockKey>,
    protected_recency: BTreeMap<u64, BlockKey>,
    probation_bytes: usize,
    protected_bytes: usize,
    disk_bytes: u64,
    tier2: HashMap<BlockKey, T2Entry>,
    tier2_recency: BTreeMap<u64, BlockKey>,
    tier2_bytes: usize,
}

impl Shard {
    fn recency_of(&mut self, seg: Segment) -> &mut BTreeMap<u64, BlockKey> {
        match seg {
            Segment::Probation => &mut self.probation_recency,
            Segment::Protected => &mut self.protected_recency,
        }
    }

    fn seg_bytes(&mut self, seg: Segment) -> &mut usize {
        match seg {
            Segment::Probation => &mut self.probation_bytes,
            Segment::Protected => &mut self.protected_bytes,
        }
    }

    fn t1_bytes(&self) -> usize {
        self.probation_bytes + self.protected_bytes
    }

    fn remove(&mut self, key: BlockKey) -> Option<T1Entry> {
        let entry = self.map.remove(&key)?;
        self.recency_of(entry.seg).remove(&entry.last_used);
        *self.seg_bytes(entry.seg) -= entry.weight;
        self.disk_bytes -= entry.disk_len as u64;
        Some(entry)
    }

    fn touch(&mut self, key: BlockKey, new_tick: u64) {
        if let Some(e) = self.map.get_mut(&key) {
            let (seg, old) = (e.seg, e.last_used);
            e.last_used = new_tick;
            let recency = self.recency_of(seg);
            recency.remove(&old);
            recency.insert(new_tick, key);
        }
    }

    /// Move an entry between segments, giving it a fresh tick.
    fn reseat(&mut self, key: BlockKey, to: Segment, new_tick: u64) {
        let Some(e) = self.map.get_mut(&key) else {
            return;
        };
        let (from, old, weight) = (e.seg, e.last_used, e.weight);
        e.seg = to;
        e.last_used = new_tick;
        self.recency_of(from).remove(&old);
        self.recency_of(to).insert(new_tick, key);
        *self.seg_bytes(from) -= weight;
        *self.seg_bytes(to) += weight;
    }

    /// The tier-1 eviction victim: the probation segment's LRU entry,
    /// falling back to protected only when probation is empty.
    fn victim(&self) -> Option<BlockKey> {
        self.probation_recency
            .first_key_value()
            .or_else(|| self.protected_recency.first_key_value())
            .map(|(_, k)| *k)
    }

    fn tier2_remove(&mut self, key: BlockKey) -> Option<T2Entry> {
        let entry = self.tier2.remove(&key)?;
        self.tier2_recency.remove(&entry.last_used);
        self.tier2_bytes -= entry.stored.len();
        Some(entry)
    }
}

/// A sharded, scan-resistant, two-tier cache of run data blocks,
/// bounded in bytes per tier. See the module docs for the policy.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    protected_per_shard: usize,
    tier2_per_shard: usize,
    policy: CachePolicy,
    tick: AtomicU64,
    /// Event counters, plus the one level kept as an atomic rather
    /// than per shard: `meta_bytes`, the pinned run-metadata bytes
    /// (see [`BlockCache::retain_meta_bytes`]).
    stats: CacheStats,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("protected_per_shard", &self.protected_per_shard)
            .field("tier2_per_shard", &self.tier2_per_shard)
            .field("policy", &self.policy)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl BlockCache {
    /// A cache bounded to ~`capacity_bytes` of decoded blocks with the
    /// default configuration (SLRU, 80% protected, no victim tier).
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_config(BlockCacheConfig::new(capacity_bytes))
    }

    /// A cache with explicit shard count, policy and victim-tier
    /// capacity.
    pub fn with_config(cfg: BlockCacheConfig) -> Self {
        let n_shards = cfg.shards.max(1);
        let capacity_per_shard = (cfg.capacity_bytes / n_shards).max(1);
        BlockCache {
            shards: (0..n_shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            capacity_per_shard,
            protected_per_shard: (capacity_per_shard as f64 * PROTECTED_FRAC) as usize,
            tier2_per_shard: cfg.tier2_bytes / n_shards,
            policy: cfg.policy,
            tick: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    fn shard_of(&self, key: BlockKey) -> &Mutex<Shard> {
        let mut h = key.0 ^ (key.1 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a block, counting a hit or miss. A tier-1 probation hit
    /// promotes the block to protected (SLRU); a tier-2 hit decodes the
    /// stored bytes — zero device reads — and readmits the block to
    /// tier 1.
    pub fn get(&self, key: BlockKey) -> Option<CachedBlock> {
        let tick = self.next_tick();
        let mut shard = self.shard_of(key).lock();
        if let Some(e) = shard.map.get(&key) {
            let block = Arc::clone(&e.block);
            if self.policy == CachePolicy::Slru && e.seg == Segment::Probation {
                // reseat() re-ticks the entry, so no touch() is needed.
                shard.reseat(key, Segment::Protected, tick);
                bump(&self.stats.promotions);
                self.rebalance_protected(&mut shard);
            } else {
                shard.touch(key, tick);
            }
            bump(&self.stats.hits);
            return Some(block);
        }
        if let Some(victim) = shard.tier2_remove(key) {
            if let Some(block) = victim.stored.decode() {
                let block: CachedBlock = Arc::new(block);
                bump(&self.stats.tier2_hits);
                // Readmit to *probation*, not protected: a cyclic sweep
                // served out of tier 2 must keep churning the probation
                // segment rather than flooding protected and displacing
                // the hot set. A further tier-1 hit promotes as usual.
                let weight = self.charge_of(&block, &victim.stored);
                self.admit(&mut shard, key, Arc::clone(&block), victim.stored, weight);
                // Readmission is a tier-1 insertion too — keeps the
                // insertions/evictions pair honest for consumers
                // estimating admission rates.
                bump(&self.stats.insertions);
                return Some(block);
            }
            // Undecodable tier-2 bytes (cannot happen for bytes that
            // were CRC-verified at admission): drop the entry, miss.
        }
        bump(&self.stats.misses);
        None
    }

    /// Whether a block is resident in either tier, without touching
    /// recency or stats (used by prefetch decisions: a tier-2 resident
    /// needs no device read either — [`BlockCache::get`] will decode
    /// it).
    pub fn contains(&self, key: BlockKey) -> bool {
        let shard = self.shard_of(key).lock();
        shard.map.contains_key(&key) || shard.tier2.contains_key(&key)
    }

    /// Record a miss for a block obtained without a [`BlockCache::get`]
    /// call — the async-prefetch read path, which checks residency with
    /// [`BlockCache::contains`] and goes straight to the device. Keeps
    /// hit/miss accounting truthful for scans.
    pub(crate) fn record_bypass_miss(&self) {
        bump(&self.stats.misses);
    }

    /// Whether an entry's stored copy is worth retaining for demotion:
    /// the victim tier is enabled and the bytes fit its per-shard
    /// budget (a block that could never be demoted would be carried —
    /// and charged — for nothing).
    fn retains(&self, stored: &StoredBlock) -> bool {
        self.tier2_per_shard > 0 && stored.len() <= self.tier2_per_shard
    }

    /// The tier-1 capacity charge of one entry: the block's weight as
    /// fixed when it was parsed (see the module docs: an upper bound on
    /// what it occupies) plus — when the stored copy is retained for
    /// free demotion — the stored bytes too. Every byte of RAM the
    /// entry pins is charged against the tier-1 budget;
    /// `capacity_bytes` is a real bound either way.
    fn charge_of(&self, block: &FlatBlock, stored: &StoredBlock) -> usize {
        let retained = if self.retains(stored) {
            stored.len()
        } else {
            0
        };
        block.weight() + 64 + retained
    }

    /// Insert a freshly device-read, decoded block into the probation
    /// segment, evicting as needed.
    ///
    /// `block` is the decoded form the read path holds (a
    /// [`CachedBlock`]) or anything [`IntoCachedBlock`] turns into it.
    ///
    /// Tier-1 capacity is charged by the block's **decoded** in-memory
    /// weight — a cache of decoded blocks occupies decoded bytes
    /// regardless of how small the codec made them on the SSD. With the
    /// victim tier enabled the stored form is retained alongside (see
    /// [`StoredBlock`]) so eviction demotes the compressed bytes to
    /// tier 2 without re-encoding — and the retained copy is part of
    /// the charge, keeping the budget an honest RAM bound. A block
    /// heavier than a whole shard is rejected outright (counted in
    /// `rejected`) instead of blowing the byte budget.
    pub fn insert(&self, key: BlockKey, block: impl IntoCachedBlock, stored: StoredBlock) {
        let block = block.into_cached();
        let weight = self.charge_of(&block, &stored);
        let mut shard = self.shard_of(key).lock();
        if weight > self.capacity_per_shard {
            // Reject before touching any resident copy under this key:
            // a block's content never changes, so what is cached stays
            // valid and must survive the rejection.
            bump(&self.stats.rejected);
            return;
        }
        shard.remove(key);
        shard.tier2_remove(key);
        self.admit(&mut shard, key, block, stored, weight);
        bump(&self.stats.insertions);
    }

    /// Place an entry of precomputed charge `weight` into the probation
    /// segment, evicting (and demoting victims to tier 2) until it
    /// fits. Caller has already removed any previous entry under `key`
    /// and checked the weight against the shard capacity.
    fn admit(
        &self,
        shard: &mut Shard,
        key: BlockKey,
        block: CachedBlock,
        stored: StoredBlock,
        weight: usize,
    ) {
        while shard.t1_bytes() + weight > self.capacity_per_shard {
            let Some(victim) = shard.victim() else { break };
            let entry = shard.remove(victim).expect("victim is resident");
            bump(&self.stats.evictions);
            self.demote_to_tier2(shard, victim, entry);
        }
        let tick = self.next_tick();
        let disk_len = stored.len() as u32;
        *shard.seg_bytes(Segment::Probation) += weight;
        shard.disk_bytes += disk_len as u64;
        shard.recency_of(Segment::Probation).insert(tick, key);
        let retained = self.retains(&stored).then_some(stored);
        shard.map.insert(
            key,
            T1Entry {
                block,
                stored: retained,
                weight,
                disk_len,
                last_used: tick,
                seg: Segment::Probation,
            },
        );
    }

    /// Demote protected LRU entries back to probation until the
    /// protected segment fits its capacity fraction. Total tier-1 bytes
    /// are unchanged, so no eviction can be needed here.
    fn rebalance_protected(&self, shard: &mut Shard) {
        while shard.protected_bytes > self.protected_per_shard {
            let Some((_, key)) = shard.protected_recency.first_key_value() else {
                break;
            };
            let key = *key;
            shard.reseat(key, Segment::Probation, self.next_tick());
            bump(&self.stats.demotions);
        }
    }

    /// Offer a tier-1 victim's stored bytes to the victim tier. A
    /// retained copy always fits: [`BlockCache::retains`] gated it
    /// against the per-shard budget at admission.
    fn demote_to_tier2(&self, shard: &mut Shard, key: BlockKey, entry: T1Entry) {
        let Some(stored) = entry.stored else { return };
        let len = stored.len();
        while shard.tier2_bytes + len > self.tier2_per_shard {
            let victim = *shard
                .tier2_recency
                .first_key_value()
                .expect("tier-2 bytes imply an entry")
                .1;
            shard.tier2_remove(victim);
            bump(&self.stats.tier2_evictions);
        }
        let tick = self.next_tick();
        shard.tier2_bytes += len;
        shard.tier2_recency.insert(tick, key);
        shard.tier2.insert(
            key,
            T2Entry {
                stored,
                last_used: tick,
            },
        );
        bump(&self.stats.tier2_insertions);
    }

    /// Account `bytes` of pinned run metadata (zone maps + bloom
    /// filters) against this cache. Metadata never competes with data
    /// blocks for the LRU capacity — it is pinned for a run's lifetime
    /// — but reporting it separately makes the memory pressure of
    /// one-shot sweeps visible: a sweep that churns the whole probation
    /// segment still leaves `meta_bytes` (and the protected segment)
    /// resident.
    pub fn retain_meta_bytes(&self, bytes: usize) {
        self.stats
            .meta_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Release metadata accounted by [`BlockCache::retain_meta_bytes`]
    /// (the run was deleted).
    pub fn release_meta_bytes(&self, bytes: usize) {
        let _ = self
            .stats
            .meta_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes as u64))
            });
    }

    /// Counter snapshot, including per-segment and per-tier residency
    /// gauges, the data/metadata byte split, and the on-disk
    /// (compressed) size of the resident tier-1 blocks.
    pub fn stats(&self) -> CacheStatsSnapshot {
        let mut snap = self.stats.snapshot();
        let (mut prob, mut prot, mut disk, mut t2) = (0usize, 0usize, 0u64, 0usize);
        for shard in &self.shards {
            let s = shard.lock();
            prob += s.probation_bytes;
            prot += s.protected_bytes;
            disk += s.disk_bytes;
            t2 += s.tier2_bytes;
        }
        snap.probation_bytes = prob as u64;
        snap.protected_bytes = prot as u64;
        snap.data_bytes = (prob + prot) as u64;
        snap.disk_bytes = disk;
        snap.tier2_bytes = t2 as u64;
        snap
    }

    /// Zero the counters (resident blocks are kept).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn entries(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| Entry::new(i as u64, 1, vec![0u8; 16]))
            .collect()
    }

    fn block(n: usize) -> CachedBlock {
        Arc::new(FlatBlock::from_entries(&entries(n)))
    }

    /// A stand-in stored form of `len` filler bytes: fine whenever the
    /// victim tier is disabled (nothing ever decodes it).
    fn filler(len: usize) -> StoredBlock {
        StoredBlock {
            bytes: Arc::new(vec![0u8; len]),
            codec_id: masm_codec::IDENTITY,
            raw_len: len as u32,
        }
    }

    /// A *decodable* stored form: the identity-coded flat encoding of
    /// the block — what the read path would hand the cache.
    fn stored_of(block: &CachedBlock) -> StoredBlock {
        let owned: Vec<Entry> = block.iter().map(|e| e.to_entry()).collect();
        let flat = crate::block::encode_block(&owned);
        StoredBlock {
            raw_len: flat.len() as u32,
            bytes: Arc::new(flat),
            codec_id: masm_codec::IDENTITY,
        }
    }

    /// A cache of `n_shards` shards, otherwise default.
    fn sharded(capacity_bytes: usize, n_shards: usize) -> BlockCache {
        BlockCache::with_config(BlockCacheConfig {
            shards: n_shards,
            ..BlockCacheConfig::new(capacity_bytes)
        })
    }

    /// The charge is what the block cost as owned entries.
    fn block_weight(n: usize) -> usize {
        entries(n).iter().map(Entry::weight).sum::<usize>() + 64
    }

    #[test]
    fn owned_entries_are_cached_as_the_flat_block_they_encode_to() {
        let c = BlockCache::new(1 << 20);
        c.insert((1, 0), Arc::new(entries(5)), filler(32));
        assert_eq!(c.get((1, 0)).unwrap(), block(5));
        assert_eq!(c.stats().data_bytes as usize, block_weight(5));
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = BlockCache::new(1 << 20);
        assert!(c.get((1, 0)).is_none());
        c.insert((1, 0), block(4), filler(32));
        assert!(c.get((1, 0)).is_some());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn contains_does_not_touch_stats() {
        let c = BlockCache::new(1 << 20);
        c.insert((7, 3), block(1), filler(16));
        assert!(c.contains((7, 3)));
        assert!(!c.contains((7, 4)));
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 0);
    }

    #[test]
    fn lru_policy_evicts_coldest() {
        // Single shard so recency ordering is observable.
        let per_block = block_weight(10);
        let c = BlockCache::with_config(BlockCacheConfig {
            shards: 1,
            policy: CachePolicy::Lru,
            ..BlockCacheConfig::new(per_block * 3)
        });
        c.insert((1, 0), block(10), filler(64));
        c.insert((1, 1), block(10), filler(64));
        c.insert((1, 2), block(10), filler(64));
        // Touch block 0 so block 1 is now coldest.
        assert!(c.get((1, 0)).is_some());
        c.insert((1, 3), block(10), filler(64));
        assert!(c.contains((1, 0)), "recently used survives");
        assert!(!c.contains((1, 1)), "coldest evicted");
        let s = c.stats();
        assert!(s.evictions >= 1);
        assert_eq!(s.promotions, 0, "plain LRU never promotes");
        assert_eq!(s.protected_bytes, 0, "plain LRU has no protected set");
    }

    #[test]
    fn slru_promotes_on_rereference_and_survives_sweep() {
        let per_block = block_weight(10);
        let c = sharded(per_block * 4, 1);
        // Admit two hot blocks and re-reference them: both promoted.
        c.insert((1, 0), block(10), filler(64));
        c.insert((1, 1), block(10), filler(64));
        assert!(c.get((1, 0)).is_some());
        assert!(c.get((1, 1)).is_some());
        let s = c.stats();
        assert_eq!(s.promotions, 2);
        assert_eq!(s.protected_bytes as usize, 2 * per_block);
        // A one-shot sweep of 4x capacity churns probation only.
        for i in 10..26u32 {
            c.insert((1, i), block(10), filler(64));
        }
        assert!(c.contains((1, 0)), "hot set survives the sweep");
        assert!(c.contains((1, 1)), "hot set survives the sweep");
        // Same sweep under plain LRU would have evicted them (asserted
        // in lru_policy_evicts_coldest / the scan-resistance test).
    }

    #[test]
    fn protected_overflow_demotes_lru_back_to_probation() {
        let per_block = block_weight(10);
        // Protected (80 % of three blocks) fits exactly two blocks.
        let c = sharded(per_block * 3, 1);
        for i in 0..3u32 {
            c.insert((1, i), block(10), filler(64));
            assert!(c.get((1, i)).is_some(), "promote {i}");
        }
        let s = c.stats();
        assert_eq!(s.promotions, 3);
        assert_eq!(s.demotions, 1, "third promotion displaces the LRU");
        assert_eq!(s.protected_bytes as usize, 2 * per_block);
        assert_eq!(s.data_bytes, s.probation_bytes + s.protected_bytes);
        // All three remain resident: demotion is not eviction.
        for i in 0..3u32 {
            assert!(c.contains((1, i)));
        }
    }

    #[test]
    fn oversized_block_is_rejected_not_admitted() {
        let c = sharded(block_weight(4), 1);
        c.insert((1, 0), block(1), filler(16));
        let resident = c.stats().data_bytes;
        // A block heavier than the whole shard must not evict the world
        // and then blow the budget.
        c.insert((9, 9), block(100), filler(4096));
        assert!(!c.contains((9, 9)));
        assert_eq!(c.stats().data_bytes, resident, "population untouched");
        let s = c.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!(s.evictions, 0, "rejection evicts nothing");
        assert!(c.contains((1, 0)), "prior resident survives");
        // An oversized re-insert under the *same key* must not drop the
        // resident (still valid) copy either.
        c.insert((1, 0), block(100), filler(4096));
        assert!(c.contains((1, 0)), "resident copy survives rejection");
        assert_eq!(c.stats().rejected, 2);
    }

    #[test]
    fn tier2_holds_victims_and_serves_them_with_a_decode() {
        // With the victim tier enabled the charge includes the retained
        // stored copy; size tier 1 to fit exactly two such entries.
        let per_entry = block_weight(10) + stored_of(&block(10)).len();
        let c = BlockCache::with_config(BlockCacheConfig {
            shards: 1,
            tier2_bytes: 1 << 16,
            ..BlockCacheConfig::new(per_entry * 2)
        });
        let b0 = block(10);
        let stored0 = stored_of(&b0);
        c.insert((1, 0), Arc::clone(&b0), stored0.clone());
        c.insert((1, 1), block(10), stored_of(&block(10)));
        // Displace block 0: the victim's stored bytes land in tier 2.
        c.insert((1, 2), block(10), stored_of(&block(10)));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.tier2_insertions, 1);
        assert_eq!(s.tier2_bytes as usize, stored0.len(), "charged stored size");
        assert!(c.contains((1, 0)), "tier-2 resident counts as contained");
        // The tier-2 hit decodes and readmits to tier 1 (probation —
        // sweeps served from tier 2 must not flood protected).
        let back = c.get((1, 0)).expect("served from tier 2");
        assert_eq!(*back, *b0, "decode reproduces the block");
        let s = c.stats();
        assert_eq!(s.tier2_hits, 1);
        assert_eq!(s.hits, 0, "not a tier-1 hit");
        assert!(s.probation_bytes > 0, "readmitted into probation");
        // Out of tier 2: the one stored copy there is the victim its
        // readmission displaced, and none aged out.
        assert_eq!(
            (
                s.tier2_insertions,
                s.tier2_evictions,
                s.tier2_bytes as usize
            ),
            (2, 0, stored0.len()),
            "promoted out of tier 2"
        );
        // A second get is a plain tier-1 hit and earns protected status.
        assert!(c.get((1, 0)).is_some());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert!(s.promotions >= 1, "the tier-1 re-reference promotes");
    }

    #[test]
    fn tier2_capacity_charges_stored_size_and_evicts_lru() {
        let stored_len = stored_of(&block(10)).len();
        // Tier 1 fits one entry (decoded + retained stored copy);
        // tier 2 fits exactly two stored blocks.
        let c = BlockCache::with_config(BlockCacheConfig {
            shards: 1,
            tier2_bytes: 2 * stored_len,
            ..BlockCacheConfig::new(block_weight(10) + stored_len)
        });
        for i in 0..4u32 {
            let b = block(10);
            let st = stored_of(&b);
            c.insert((1, i), b, st);
        }
        // Three victims offered, capacity two: the oldest aged out.
        let s = c.stats();
        assert_eq!(s.tier2_insertions, 3);
        assert_eq!(s.tier2_evictions, 1);
        assert_eq!(s.tier2_bytes as usize, 2 * stored_len);
        assert!(!c.contains((1, 0)), "oldest victim aged out of tier 2");
        assert!(c.contains((1, 1)));
        assert!(c.contains((1, 2)));
    }

    #[test]
    fn reinsert_replaces_weight() {
        let c = sharded(1 << 20, 1);
        c.insert((1, 0), block(10), filler(64));
        let before = c.stats().data_bytes;
        c.insert((1, 0), block(10), filler(64));
        assert_eq!(c.stats().data_bytes, before, "no double counting");
    }

    #[test]
    fn meta_bytes_tracked_separately_from_data() {
        let c = sharded(4096, 1);
        c.retain_meta_bytes(1000);
        c.retain_meta_bytes(500);
        c.insert((1, 0), block(8), filler(40));
        let s = c.stats();
        assert_eq!(s.meta_bytes, 1500);
        assert!(s.data_bytes > 0);
        // A sweep that evicts every data block leaves metadata pinned.
        for i in 1..100u32 {
            c.insert((1, i), block(8), filler(40));
        }
        assert_eq!(
            c.stats().meta_bytes,
            1500,
            "eviction never touches metadata"
        );
        c.release_meta_bytes(1500);
        assert_eq!(c.stats().meta_bytes, 0);
        c.release_meta_bytes(99); // saturates, never underflows
        assert_eq!(c.stats().meta_bytes, 0);
    }

    #[test]
    fn disk_bytes_track_compressed_size_of_residents() {
        let c = sharded(1 << 20, 1);
        c.insert((1, 0), block(10), filler(100));
        c.insert((1, 1), block(10), filler(40));
        assert_eq!(c.stats().disk_bytes, 140);
        // Capacity still charges decoded weight, not disk bytes.
        assert!(c.stats().data_bytes > 140);
        // Re-insert replaces.
        c.insert((1, 0), block(10), filler(60));
        assert_eq!(c.stats().disk_bytes, 100);
    }

    #[test]
    fn capacity_is_respected() {
        let c = sharded(4096, 4);
        for i in 0..200u32 {
            c.insert((1, i), block(8), filler(40));
        }
        let resident = c.stats().data_bytes;
        assert!(resident <= 4096 + 4 * 1024, "{resident}");
    }

    #[test]
    fn stats_invariants_hold_under_churn() {
        let per_block = block_weight(6);
        let c = BlockCache::with_config(BlockCacheConfig {
            shards: 2,
            tier2_bytes: 4096,
            ..BlockCacheConfig::new(per_block * 6)
        });
        for round in 0..4u32 {
            for i in 0..40u32 {
                let b = block(6);
                let st = stored_of(&b);
                c.insert((1, i), b, st);
                if i % 3 == 0 {
                    c.get((1, i.saturating_sub(2)));
                }
            }
            let s = c.stats();
            assert_eq!(
                s.data_bytes,
                s.probation_bytes + s.protected_bytes,
                "round {round}: tier-1 split accounts every byte"
            );
            assert!(s.data_bytes as usize <= per_block * 6 + 2 * per_block);
            assert!(s.tier2_bytes <= 4096);
        }
    }
}
