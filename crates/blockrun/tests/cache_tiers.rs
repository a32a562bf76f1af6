//! Device-level tests of the two-tier, scan-resistant block cache:
//! SLRU keeps a re-referenced hot set resident through sweeps that
//! plain LRU loses, and the compressed victim tier serves promotions
//! with one codec decode and **zero** device reads (asserted via
//! `SimDevice` counters).

use masm_blockrun::{
    read_block, write_run, BlockCache, BlockCacheConfig, BlockRunConfig, CachePolicy, CodecChoice,
    Entry, FlatBlock,
};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn device() -> (SimDevice, SessionHandle) {
    let clock = SimClock::new();
    let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    (dev, SessionHandle::fresh(clock))
}

/// Compressible entries (constant payload) so the LZ codec has
/// something to chew on.
fn entries(n: u64) -> Vec<Entry> {
    (0..n)
        .map(|k| Entry::new(k, k + 1, vec![7u8; 32]))
        .collect()
}

fn cfg(codec: CodecChoice) -> BlockRunConfig {
    BlockRunConfig {
        block_bytes: 256,
        bloom_bits_per_key: 0,
        codec,
    }
}

/// Decoded in-memory weight of one cached block, as the cache charges
/// it: what its entries weigh as owned [`Entry`]s.
fn weight_of(block: &FlatBlock) -> usize {
    block.iter().map(|e| e.to_entry().weight()).sum::<usize>() + 64
}

#[test]
fn slru_keeps_rereferenced_hot_set_through_sweep_lru_loses_it() {
    let (dev, s) = device();
    let meta = write_run(&s, &dev, 0, &cfg(CodecChoice::Delta), &entries(600)).unwrap();
    assert!(meta.zones.len() > 12, "{} blocks", meta.zones.len());
    let block0 = read_block(&s, &dev, &meta, 0, None).unwrap();
    let w = weight_of(&block0);

    for (policy, expect_resident) in [(CachePolicy::Slru, true), (CachePolicy::Lru, false)] {
        let cache = BlockCache::with_config(BlockCacheConfig {
            shards: 1,
            policy,
            ..BlockCacheConfig::new(w * 4)
        });
        // Hot block: admitted, then re-referenced (SLRU promotes it).
        read_block(&s, &dev, &meta, 0, Some((&cache, 1))).unwrap();
        read_block(&s, &dev, &meta, 0, Some((&cache, 1))).unwrap();
        // Sequential sweep of every other block — far more unique
        // blocks than the cache holds.
        for idx in 1..meta.zones.len() {
            read_block(&s, &dev, &meta, idx, Some((&cache, 1))).unwrap();
        }
        assert_eq!(
            cache.contains((1, 0)),
            expect_resident,
            "{policy:?}: hot block residency after the sweep"
        );
        let stats = cache.stats();
        assert_eq!(
            stats.data_bytes,
            stats.probation_bytes + stats.protected_bytes,
            "tier-1 split accounts every byte"
        );
        if policy == CachePolicy::Slru {
            assert!(stats.promotions >= 1, "re-reference promoted the hot block");
            // The sweep churned probation; the hot set is protected, so
            // a re-read costs no device I/O.
            let reads_before = dev.stats().read_ops;
            read_block(&s, &dev, &meta, 0, Some((&cache, 1))).unwrap();
            assert_eq!(dev.stats().read_ops, reads_before, "hot re-read is free");
        }
    }
}

#[test]
fn tier2_promotion_costs_one_decode_and_zero_device_reads() {
    let (dev, s) = device();
    let meta = write_run(&s, &dev, 0, &cfg(CodecChoice::Lz), &entries(400)).unwrap();
    assert!(meta.zones.len() >= 3);
    let expect0 = read_block(&s, &dev, &meta, 0, None).unwrap();
    let w = weight_of(&expect0);

    // Tier 1 fits one block; tier 2 is roomy.
    let cache = BlockCache::with_config(BlockCacheConfig {
        shards: 1,
        tier2_bytes: 1 << 20,
        ..BlockCacheConfig::new(w + w / 4)
    });
    read_block(&s, &dev, &meta, 0, Some((&cache, 1))).unwrap();
    read_block(&s, &dev, &meta, 1, Some((&cache, 1))).unwrap();
    assert_eq!(
        cache.stats().tier2_insertions,
        1,
        "victim's stored bytes demoted"
    );
    assert_eq!(
        cache.stats().tier2_bytes,
        meta.zones[0].len as u64,
        "tier 2 charges the stored (compressed) size, not decoded weight"
    );

    // The promotion: no device read, one codec decode, same entries.
    let reads_before = dev.stats().read_ops;
    let promoted = read_block(&s, &dev, &meta, 0, Some((&cache, 1))).unwrap();
    assert_eq!(*promoted, *expect0, "decode reproduces the block");
    assert_eq!(
        dev.stats().read_ops,
        reads_before,
        "tier-2 promotion performs zero device reads"
    );
    let stats = cache.stats();
    assert_eq!(stats.tier2_hits, 1, "served (and decoded) from tier 2");
    // Back in tier 1: tier 2 holds only the block its readmission
    // displaced, and nothing aged out.
    assert_eq!(
        (
            stats.tier2_insertions,
            stats.tier2_evictions,
            stats.tier2_bytes
        ),
        (2, 0, meta.zones[1].len as u64),
        "promoted back into tier 1"
    );
}

#[test]
fn tier2_multiplies_no_device_hits_on_repeated_sweeps() {
    // A cyclic sweep larger than tier 1 but whose *compressed* bytes
    // fit tier 2: with the LZ codec the victim tier absorbs the whole
    // loop, so re-sweeps run device-free; without it every round pays
    // full device I/O.
    let (dev, s) = device();
    let meta = write_run(&s, &dev, 0, &cfg(CodecChoice::Lz), &entries(600)).unwrap();
    let stored_total: u64 = meta.zones.iter().map(|z| z.len as u64).sum();
    let block0 = read_block(&s, &dev, &meta, 0, None).unwrap();
    let w = weight_of(&block0);
    let t1_cap = w * 4; // far smaller than the decoded sweep

    let mut no_device = Vec::new();
    for tier2_bytes in [0usize, (stored_total as usize) * 2] {
        let cache = BlockCache::with_config(BlockCacheConfig {
            shards: 1,
            tier2_bytes,
            ..BlockCacheConfig::new(t1_cap)
        });
        for _round in 0..3 {
            for idx in 0..meta.zones.len() {
                read_block(&s, &dev, &meta, idx, Some((&cache, 1))).unwrap();
            }
        }
        no_device.push(cache.stats().no_device_hits());
    }
    assert!(
        no_device[1] >= 3 * no_device[0].max(1),
        "victim tier serves sweeps device-free: {no_device:?}"
    );
}
